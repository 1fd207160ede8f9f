"""Linear persuasion over posterior means, and two-seller deviation checks.

A sender choosing an information structure for a payoff that depends only on
the posterior mean is really choosing a mean-preserving contraction of the
prior. With a piecewise-linear payoff and a candidate grid containing the
prior's atoms and every payoff kink, the problem becomes a finite exact LP
over the target's weights on the grid: between grid points the payoff is
linear, so mass at an interior atom can be slid to the two neighboring grid
points without changing the objective or leaving the feasible set. The
grid-restricted optimum then equals the unrestricted one; with a coarser
grid it is still an exact lower bound.

The contraction order needs one row per prior atom above the first, not one
per candidate: the target's integrated cdf I_Q is convex, the prior's I_P is
affine between consecutive prior atoms, and both are 0 at the lowest atom.
So I_Q <= I_P at a_2, ..., a_{n-1} with I_Q = I_P at a_n, which with mass 1
is the mean, decides the order on the whole grid. With the mass row the LP
has n rows however fine the grid, and a basic solution has at most n
positive weights: the bound of the theorem below.

The LP's feasible set is exactly the contractions of the prior on the grid,
and the simplex stops at a vertex of it. By the paper's theorem, a
contraction with more than n atoms is a mixture of contractions with at most
n atoms each, all on its own atoms and so on the grid; it is not a vertex.
So the optimum already uses at most n signals, and no decomposition is
needed to reach a small-support answer. The solver checks this exactly.

The payoff is a ``PiecewiseLinearFn``, a two-row ``Matrix`` of its knots'
x and y values held as integer rows, as a distribution holds its atoms and
weights. The LP's build, the solver's checks, the deviation check's merge of
its candidates with the knots, and ``expectation`` read those rows, so a
solve makes no ``Fraction`` from a knot.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import lp
from .distributions import DiscreteDistribution, SmpcTriple, _left_curtain
from .errors import CandidateError, CdfError, DomainError, InternalError
from .linalg import (
    Matrix,
    canonical_row,
    integer_row,
    json_list,
    json_object,
    parse_rational,
    parse_row,
)


class PiecewiseLinearFn(Matrix):
    """Piecewise-linear function given by knots, interpolating between them.

    A :class:`Matrix` of two rows, held as its integer rows, the way a
    distribution is: row 0 holds the knots' x values and row 1 their y
    values, each ``(scale, ints)`` in lowest terms, and construction checks
    them there. ``PiecewiseLinearFn(knots)`` takes a tuple of ``(x, y)``
    tuples of ``Fraction`` or ``int`` values; anything else, a float or a
    third coordinate included, is a ``ValueError``. ``from_pairs`` and
    ``from_json`` take rational text straight to the rows: each knot is
    checked to be a pair first, and then the x column and the y column are
    read as two rows by ``from_rows``, so the first bad x value is refused
    before any bad y value. The function is read only through those rows,
    and ``expectation`` refuses an atom outside the knot range rather than
    extrapolate.
    """

    def __init__(self, knots) -> None:
        super().__init__(zip(*_pairs(knots)))

    def _set_rows(self, rows) -> None:
        if len(rows) != 2 or len(rows[0][1]) < 2:
            raise DomainError("piecewise-linear function needs at least 2 knots")
        # Over one positive scale, the order of the x values is that of their integers.
        xs = rows[0][1]
        if any(x0 >= x1 for x0, x1 in zip(xs, xs[1:])):
            raise DomainError("knot x-coordinates must be strictly increasing")
        super()._set_rows(rows)

    @classmethod
    def from_pairs(cls, pairs) -> "PiecewiseLinearFn":
        # A knot of text or bytes is left as it is, for _pairs to refuse.
        knots = _pairs([knot if isinstance(knot, (str, bytes, bytearray)) else tuple(knot) for knot in pairs])
        return cls.from_rows(zip(*knots))

    def _outside(self, x: Fraction) -> DomainError:
        s, xs = self._integer_rows[0]
        return DomainError(f"{x} outside domain [{Fraction(xs[0], s)}, {Fraction(xs[-1], s)}]")

    def is_cdf(self) -> bool:
        """Continuous cdf shape: starts at 0, ends at 1, never decreases."""
        t, ys = self._integer_rows[1]
        return ys[0] == 0 and ys[-1] == t and all(y0 <= y1 for y0, y1 in zip(ys, ys[1:]))

    def expectation(self, dist: DiscreteDistribution) -> Fraction:
        """E u(X) for X drawn from ``dist``, in one integer sweep up its rows and the knots'.

        With the knots at X / s and Y / t, an atom a = A / e of weight W / w
        falls to the first segment with a <= x1, and a segment's atoms add
        ((Y0 dX - dY X0) e M + dY s S) / (t w e dX), for dX = X1 - X0,
        dY = Y1 - Y0, M = sum W and S = sum W A. The lowest atom below the
        first knot, or else the lowest above the last, is a ``DomainError``:
        ``a outside domain [x_1, x_k]``.
        """
        (e, atoms), (w, weights) = dist._integer_rows
        (s, xs), (t, ys) = self._integer_rows
        if atoms[0] * s < xs[0] * e:
            raise self._outside(Fraction(atoms[0], e))
        n, i = len(atoms), 0
        num, den = 0, 1
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            if i == n:
                break
            p = x1 * e
            mass = moment = 0
            while i < n and atoms[i] * s <= p:
                mass += weights[i]
                moment += weights[i] * atoms[i]
                i += 1
            if mass:
                dx, dy = x1 - x0, y1 - y0
                top = lcm(den, dx)
                total = (y0 * dx - dy * x0) * e * mass + dy * s * moment
                num = num * (top // den) + total * (top // dx)
                den = top
        if i < n:
            raise self._outside(Fraction(atoms[i], e))
        return Fraction(num, den * t * w * e)

    @classmethod
    def from_json(cls, obj) -> "PiecewiseLinearFn":
        json_object(obj, "piecewise-linear JSON", ("knots",))
        knots = json_list(obj["knots"], "'knots'")
        return cls.from_pairs(json_list(knot, f"knot {k} of 'knots'") for k, knot in enumerate(knots))


def _pairs(knots):
    """``knots`` itself when each knot is an ``(x, y)`` tuple, else a ``ValueError``."""
    for k, knot in enumerate(knots):
        if not isinstance(knot, tuple) or len(knot) != 2:
            raise ValueError(f"knot {k} of 'knots' must be an (x, y) pair")
    return knots


@dataclass(frozen=True)
class PersuasionSolution:
    """LP optimum, which is already a small-support signal.

    ``optimum`` is a vertex of the weight LP, so its target has at most n
    atoms (see the module docstring), and ``value`` is its exact expected
    payoff. ``candidates_exact`` records whether the candidate grid contained every
    payoff kink inside the prior's range, in which case ``value`` solves the
    unrestricted problem rather than bounding it.
    """

    optimum: SmpcTriple
    value: Fraction
    candidates_exact: bool


def _grid_columns(d: int, grid: list[int], ratios) -> list[int] | None:
    """The index on the increasing grid ``grid / d`` of each increasing ``p / q``, or None."""
    columns, j = [], 0
    for p, q in ratios:
        c, r = divmod(p * d, q)
        j = bisect_left(grid, c, j)
        if r or j == len(grid) or grid[j] != c:
            return None
        columns.append(j)
    return columns


def _persuasion_lp(
    source: DiscreteDistribution,
    utility: PiecewiseLinearFn,
    grid: tuple[int, list[int]],
    atom_columns: list[int],
) -> lp.StandardFormLP:
    """The weight LP of ``solve_linear_persuasion`` on its checked grid.

    ``grid`` is the candidates' integer row ``(D, C)``, with c_j = C_j / D.
    Column j is q_j, and ``atom_columns`` holds k_i, the candidate index of
    each prior atom a_i. Row i - 2, for i = 2..n, bounds the target's
    integrated cdf at a_i by the prior's: sum_{c_j < a_i} q_j (a_i - c_j)
    <= I_P(a_i), with equality at a_n. The mass row comes last. So the LP
    has n rows, and a one-atom prior's is the mass row alone. Pivoting
    ``atom_columns`` into the rows in order starts at Q = P: row i - 2 is 0
    on every atom column from k_i up, so its pivot on k_{i-1} has entry
    a_i - a_{i-1} > 0, and the mass row's on k_n has entry 1.

    Every row is built on integers and goes to ``lp.solve`` as one. With
    the prior's weights over their scale W, one sweep up the prior's atoms
    carries the mass and moment below each, and the rhs is over W D:
    I_P(a_i) is C_{k_i} mass - moment, as in ``mpc_violation``, and the mass
    row's 1 is W D. ``Matrix._trusted`` takes the rows of A, each put in
    lowest terms by ``canonical_row``. One sweep up the utility's integer
    rows, its knots at X / s and Y / t, gives the objective over t L D, for
    L the lcm of the widths X1 - X0 of the segments that hold a candidate.
    """
    d, cs = grid
    m = len(cs)
    w, weights = source._integer_rows[1]
    rows, bounds = [], []
    mass = moment = 0
    for k, weight in zip(atom_columns, weights):
        ck = cs[k]
        if mass:  # every atom above the first
            rows.append(canonical_row(d, [ck - cj for cj in cs[:k]] + [0] * (m - k)))
            bounds.append(ck * mass - moment)
        mass, moment = mass + weight, moment + weight * ck
    # Candidates j in [start, end) lie on the first knot segment with
    # c_j <= x1. With the knots at X / s and Y / t, there
    # u(c) = (y0 (x1 - c) + y1 (c - x0)) / (x1 - x0) is (cut + rise c) / (t dX),
    # for cut = Y0 X1 - Y1 X0, rise = (Y1 - Y0) s and dX = X1 - X0.
    (s, xs), (t, ys) = utility._integer_rows
    segments, j = [], 0
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        if j == m:
            break
        p, start = x1 * d, j
        while j < m and cs[j] * s <= p:
            j += 1
        if j > start:
            segments.append((x1 - x0, y0 * x1 - y1 * x0, (y1 - y0) * s, start, j))
    top = lcm(*(dx for dx, *_ in segments))
    objective = []
    for dx, cut, rise, start, end in segments:
        f = top // dx
        cut, rise = cut * f * d, rise * f
        objective += [cut + rise * c for c in cs[start:end]]
    n, scale = len(weights), w * d
    return lp.StandardFormLP(
        objective=(top * t * d, objective),
        constraint_matrix=Matrix._trusted((*rows, (1, [1] * m))),
        rhs=(scale, [*bounds, scale]),
        senses=("le",) * (n - 2) + ("eq",) * min(n, 2),
    )


def solve_linear_persuasion(
    source: DiscreteDistribution,
    utility: PiecewiseLinearFn,
    candidates,
) -> PersuasionSolution:
    """Maximize expected utility over contractions supported on the candidates.

    Variables are the target's weights q_j on the candidates c_j. They sum to
    1, and at every prior atom a_i above the first the target's integrated
    cdf sum_{c_j < a_i} q_j (a_i - c_j) is at most the prior's, and equal to
    it at the top atom, which fixes the mean (the Rothschild-Stiglitz form of
    the problem). The target's integrated cdf is convex and the prior's is
    affine between its atoms, so these n - 1 rows decide the contraction
    order on the whole grid, and the LP has n rows however fine the grid is.

    The candidates go straight to their integer row, the grid, and are
    checked there; one sweep up the grid finds the prior's atom columns and
    another, over the utility's x row, ``candidates_exact``. The LP comes
    from integer sweeps over the grid's common denominator
    (``_persuasion_lp``), exactly as a per-entry ``Fraction`` build makes
    it, and goes to ``lp.solve`` as integer rows.
    The simplex starts at full disclosure, Q = P, a feasible vertex because
    the candidates must contain every source atom: the prior's atom columns,
    one per row. The positive-weight candidates, with their basic levels,
    are the optimum's target. The optimum is a vertex, so it has at most n
    atoms, and its expected utility is the LP's value; both are checked
    exactly, and a failure is an ``InternalError``. That value check,
    ``PiecewiseLinearFn.expectation``, is its own sweep of the target's
    atoms against the knots. The LP's rows already impose the contraction
    order, so it is not decided again: the left-curtain coupling
    (``distributions._left_curtain``) builds the optimum's garbling, and
    its full ``SmpcTriple`` check proves the order; a pair that fails it
    would be an ``InternalError``.
    """
    d, grid = parse_row(candidates)
    if any(x >= y for x, y in zip(grid, grid[1:])):
        raise CandidateError("candidates must be strictly increasing")
    return _solve_on_grid(source, utility, d, grid)


def _solve_on_grid(
    source: DiscreteDistribution, utility: PiecewiseLinearFn, d: int, grid: list[int]
) -> PersuasionSolution:
    """``solve_linear_persuasion`` on the strictly increasing grid ``grid / d``,
    in lowest terms: every check from the empty grid on, and the solve."""
    if not grid:
        raise CandidateError("candidate list is empty")
    e, atoms = source._integer_rows[0]
    if grid[0] * e < atoms[0] * d or grid[-1] * e > atoms[-1] * d:
        raise CandidateError("candidates must lie within the prior's atom range")
    atom_columns = _grid_columns(d, grid, ((a, e) for a in atoms))
    if atom_columns is None:
        raise CandidateError("candidates must include every atom of the prior")
    # The grid holds a_1 and a_n, so its ends are the prior's.
    s, xs = utility._integer_rows[0]
    if xs[0] * d > grid[0] * s or xs[-1] * d < grid[-1] * s:
        raise DomainError("utility domain must cover the prior's atom range")

    problem = _persuasion_lp(source, utility, (d, grid), atom_columns)
    outcome = lp.solve(problem, start=atom_columns)
    if outcome.status != "optimal":  # the mass row bounds every weight
        raise InternalError(f"persuasion LP came back {outcome.status}")
    support = [j for j, q in enumerate(outcome.solution) if q]
    if len(support) > len(atoms):
        raise InternalError(
            f"persuasion LP optimum is not a vertex: {len(support)} atoms on a {len(atoms)}-atom prior"
        )
    target = DiscreteDistribution._checked(
        (canonical_row(d, [grid[j] for j in support]), integer_row([outcome.solution[j] for j in support]))
    )
    if utility.expectation(target) != outcome.value:
        raise InternalError("persuasion LP value differs from the optimum's expected utility")
    # The knots strictly between a_1 and a_n, where u may kink.
    kinks = ((x, s) for x in xs if grid[0] * s < x * d < grid[-1] * s)
    # The LP's rows impose the order, so no decision comes first: the
    # builder's checked triple proves it, and it raises if it does not hold.
    return PersuasionSolution(
        optimum=_left_curtain(source, target),
        value=outcome.value,
        candidates_exact=_grid_columns(d, grid, kinks) is not None,
    )


@dataclass(frozen=True)
class DeviationCheck:
    """Best deviation payoff against a fixed opponent cdf.

    ``solution.optimum`` is the best deviation: an LP vertex, so a
    contraction with at most n atoms that attains ``max_payoff``, the
    solution's value, exactly.
    """

    equilibrium_value: Fraction
    solution: PersuasionSolution

    @property
    def max_payoff(self) -> Fraction:
        return self.solution.value

    @property
    def profitable(self) -> bool:
        return self.max_payoff > self.equilibrium_value


def check_no_profitable_deviation(
    source: DiscreteDistribution,
    opponent_cdf: PiecewiseLinearFn,
    equilibrium_value: Fraction,
    candidates,
) -> DeviationCheck:
    """Maximize the deviation payoff over contractions of the prior.

    The opponent's cdf acts as the deviator's utility: against an atomless
    rival, ties have probability zero and a deviation's win probability is
    its expected cdf value. Folding the cdf knots into the candidate grid
    makes the grid restriction exact: the payoff is linear between knots, so
    some optimal deviation lives on the grid. The best deviation is the LP's
    optimal vertex, which by the paper's theorem has at most n atoms, and it
    attains ``max_payoff`` exactly.

    The cdf is checked first, then ``equilibrium_value``, then that the
    cdf's x row covers [a_1, a_n], on the integer rows. The candidates are a
    set: their integer row and the cdf's x values in [a_1, a_n], both ends
    included, are merged as one set of integers over a common scale and
    sorted. So they need not be sorted or distinct, and a knot at a prior
    atom supplies that atom. The merged grid goes to the solve of
    ``solve_linear_persuasion`` from its empty-grid check on, and no
    ``Fraction`` is made from a knot, an atom or a candidate.
    """
    if not opponent_cdf.is_cdf():
        raise CdfError("opponent distribution must be a continuous cdf (0 to 1, nondecreasing)")
    equilibrium_value = parse_rational(equilibrium_value)
    (e, atoms), (s, xs) = source._integer_rows[0], opponent_cdf._integer_rows[0]
    lo, hi = atoms[0] * s, atoms[-1] * s
    if xs[0] * e > lo or xs[-1] * e < hi:
        raise DomainError("opponent cdf domain must cover the prior's atom range")
    d, grid = parse_row(candidates)
    scale = lcm(d, s)
    merged = {c * (scale // d) for c in grid}
    merged.update(x * (scale // s) for x in xs if lo <= x * e <= hi)
    solution = _solve_on_grid(source, opponent_cdf, *canonical_row(scale, sorted(merged)))
    return DeviationCheck(equilibrium_value=equilibrium_value, solution=solution)
