"""Finitely supported distributions, Markov garblings, and the contraction order.

A distribution is a sorted list of atoms with positive rational weights that
sum to one, held and parsed as its integer rows, the way a matrix is: one
row of atoms and one of weights, each over its own scale. Garbling it
through a row-stochastic matrix pools mass parcels at their barycenters; a
triple (source, transition, target) is only constructed after both defining
identities

    weights(source) @ F == weights(target)
    (weights(source) * atoms(source)) @ F == weights(target) * atoms(target)

have been checked exactly, column by column, on those rows.
``mpc_violation`` decides the contraction order and ``_left_curtain``
certifies it by a checked triple, both in integer sweeps over the two
distributions' rows. ``find_witness`` runs the builder only on a pair that
the decision accepts; the persuasion solve, whose LP already imposes the
order, runs it alone, and on a pair that is not a contraction it raises.
Every target built here goes through ``DiscreteDistribution``'s checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import (
    BarycenterIdentityError,
    DimensionError,
    DistributionError,
    EntryRangeError,
    InternalError,
    MpcError,
    RowSumError,
    WeightIdentityError,
)
from .linalg import Matrix, canonical_row, column_sums, json_list, json_object, row_text


class DiscreteDistribution(Matrix):
    """Purely atomic distribution: strictly increasing atoms, positive weights.

    A :class:`Matrix` of two rows, held as its integer rows: row 0 holds the
    atoms and row 1 the weights, each ``(scale, ints)`` in lowest terms, and
    construction checks them there. ``DiscreteDistribution(atoms, weights)``
    takes ``Fraction`` or ``int`` values, not floats, and ``from_rows``
    and ``from_json`` take rational text straight to the rows. ``atoms``
    and ``weights`` are tuples of ``Fraction``, read from ``entries`` on
    first use; equality and hashing read the integer rows.
    """

    def __init__(self, atoms, weights) -> None:
        super().__init__((atoms, weights))

    def _set_rows(self, rows) -> None:
        if len(rows) != 2 or not rows[0][1] or len(rows[0][1]) != len(rows[1][1]):
            raise DistributionError("atoms and weights must be equally long and nonempty")
        (_, atoms), (scale, weights) = rows
        # Over one positive scale, the order of the atoms and the signs and
        # sum of the weights are those of their integers.
        if any(x >= y for x, y in zip(atoms, atoms[1:])):
            raise DistributionError("atoms must be strictly increasing")
        if min(weights) <= 0:
            raise DistributionError("weights must be positive")
        if sum(weights) != scale:
            raise DistributionError("weights must sum to exactly 1")
        super()._set_rows(rows)

    @property
    def atoms(self) -> tuple[Fraction, ...]:
        return self.entries[0]

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self.entries[1]

    def to_json(self) -> dict:
        atoms, weights = (row_text(scale, ints) for scale, ints in self._integer_rows)
        return {"atoms": atoms, "weights": weights}

    @classmethod
    def from_json(cls, obj) -> "DiscreteDistribution":
        json_object(obj, "distribution JSON", ("atoms", "weights"))
        return cls.from_rows((json_list(obj["atoms"], "'atoms'"), json_list(obj["weights"], "'weights'")))


class TransitionMatrix(Matrix):
    """Row-stochastic (Markov) matrix: entries in [0, 1], every row sums to 1.

    A :class:`Matrix` whose construction also checks its integer rows. The
    inherited ``from_rows`` builds this class, so what it returns is checked
    too.
    """

    def _set_rows(self, rows) -> None:
        super()._set_rows(rows)
        # On the integer row of (scale, ints): an entry lies in [0, 1] exactly
        # when 0 <= ints[j] <= scale, and the row sums to 1 exactly when
        # sum(ints) == scale.
        for i, (scale, ints) in enumerate(rows):
            if min(ints) < 0 or max(ints) > scale:
                j = next(j for j, x in enumerate(ints) if x < 0 or x > scale)
                raise EntryRangeError(
                    f"entry ({i},{j}) = {Fraction(ints[j], scale)} outside [0, 1]",
                    row=i,
                    column=j,
                )
            total = sum(ints)
            if total != scale:
                raise RowSumError(
                    f"row {i} sums to {Fraction(total, scale)}, not 1"
                )

    def to_json(self) -> dict:
        return {"rows": [row_text(scale, ints) for scale, ints in self._integer_rows]}

    @classmethod
    def from_json(cls, obj) -> "TransitionMatrix":
        json_object(obj, "matrix JSON", ("rows",))
        rows = json_list(obj["rows"], "'rows'")
        return cls.from_rows(json_list(row, f"row {i} of 'rows'") for i, row in enumerate(rows))


@dataclass(frozen=True)
class SmpcTriple:
    """A certified (source, transition, target) garbling triple.

    Construction re-checks both defining identities exactly, so any held
    instance is valid by construction.
    """

    source: DiscreteDistribution
    transition: TransitionMatrix
    target: DiscreteDistribution

    def __post_init__(self) -> None:
        n, m = self.source.cols, self.target.cols
        if self.transition.rows != n or self.transition.cols != m:
            raise DimensionError(
                f"transition is {self.transition.rows}x{self.transition.cols}, "
                f"expected {n}x{m}"
            )
        (e, b), (w, q) = self.target._integer_rows
        d_w, s_w, d_mom, s_mom = _masses_and_moments(self.source, self.transition)
        # With the target's atoms b / e and weights q / w, S / D == q_j / w
        # exactly when S * w == q_j * D, and S / D == q_j b_j / (w e) when
        # S * w * e == q_j * b_j * D.
        for j in range(m):
            if s_w[j] * w != q[j] * d_w:
                raise WeightIdentityError(
                    f"weight identity fails at column {j}: "
                    f"{Fraction(s_w[j], d_w)} != {Fraction(q[j], w)}",
                    column=j,
                )
        for j in range(m):
            if s_mom[j] * w * e != q[j] * b[j] * d_mom:
                raise BarycenterIdentityError(
                    f"barycenter identity fails at column {j}: "
                    f"{Fraction(s_mom[j], d_mom)} != {Fraction(q[j] * b[j], w * e)}",
                    column=j,
                )

    @classmethod
    def _trusted(
        cls,
        source: DiscreteDistribution,
        transition: TransitionMatrix,
        target: DiscreteDistribution,
    ) -> "SmpcTriple":
        # Fast path for apply_transition and the decomposition's component
        # builder, whose outputs satisfy both identities by their
        # construction arithmetic itself.
        self = object.__new__(cls)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "target", target)
        return self

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "transition": self.transition.to_json(),
            "target": self.target.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "SmpcTriple":
        json_object(obj, "triple JSON", ("source", "transition", "target"))
        return cls(
            DiscreteDistribution.from_json(obj["source"]),
            TransitionMatrix.from_json(obj["transition"]),
            DiscreteDistribution.from_json(obj["target"]),
        )


def _masses_and_moments(
    source: DiscreteDistribution, transition: TransitionMatrix
) -> tuple[int, list[int], int, list[int]]:
    """Column masses s_w / d_w and first moments s_mom / d_mom of a garbling.

    Column j's mass is sum_i p_i F_ij and its first moment sum_i p_i a_i F_ij,
    each computed on F's integer rows from the source's: with atoms a / e and
    weights p / w, the moment coefficients are the integer row of p a over
    w e.
    """
    (e, a), (w, p) = source._integer_rows
    rows = transition._integer_rows
    d_w, s_w = column_sums((w, p), rows)
    d_mom, s_mom = column_sums((w * e, list(map(mul, p, a))), rows)
    return d_w, s_w, d_mom, s_mom


def apply_transition(source: DiscreteDistribution, transition: TransitionMatrix) -> SmpcTriple:
    """Garble ``source`` through ``transition`` and return the certified triple.

    Zero-mass columns are dropped (they carry no atom), and columns whose
    barycenters coincide are merged by summing them, so any row-stochastic
    matrix is a legal input. Target atoms come out sorted with the matrix
    columns permuted to match. Column j's barycenter s_mom d_w / (d_mom s_w)
    is reduced by its gcd, and the barycenters are put over the lcm of their
    denominators, which is the target's atom scale in lowest terms; columns
    are merged and sorted on those integers. When every column has mass, at
    distinct barycenters already in increasing order, the triple holds
    ``transition`` itself.
    """
    n = source.cols
    if transition.rows != n:
        raise DimensionError(f"transition has {transition.rows} rows, expected {n}")
    d_w, s_w, d_mom, s_mom = _masses_and_moments(source, transition)
    columns = [j for j, mass in enumerate(s_w) if mass]
    barycenters = []
    for j in columns:
        num, den = s_mom[j] * d_w, d_mom * s_w[j]
        g = gcd(num, den)
        barycenters.append((num // g, den // g))
    scale = lcm(*(den for _, den in barycenters))
    atoms = [num * (scale // den) for num, den in barycenters]
    if len(columns) == len(s_w) and all(x < y for x, y in zip(atoms, atoms[1:])):
        masses = canonical_row(d_w, s_w)
    else:
        # Columns of one atom are adjacent once sorted, and make one group.
        groups: list[list[int]] = []
        merged: list[int] = []
        for x, j in sorted(zip(atoms, columns)):
            if merged and merged[-1] == x:
                groups[-1].append(j)
            else:
                merged.append(x)
                groups.append([j])
        atoms = merged
        # Each output column is the sum of its group's columns, on the integer rows.
        transition = TransitionMatrix._trusted(
            tuple(
                canonical_row(s, [ints[g[0]] if len(g) == 1 else sum(ints[j] for j in g) for g in groups])
                for s, ints in transition._integer_rows
            )
        )
        masses = canonical_row(d_w, [sum(s_w[j] for j in group) for group in groups])
    target = DiscreteDistribution._checked(((scale, atoms), masses))
    # Both identities hold by the arithmetic above: the target weights are the
    # computed column masses and each atom is its column's exact barycenter.
    return SmpcTriple._trusted(source, transition, target)


def mpc_violation(source: DiscreteDistribution, candidate: DiscreteDistribution) -> str | None:
    """Why ``candidate`` is not a mean-preserving contraction of ``source``.

    Returns ``None`` when it is one. The test is the integrated-cdf criterion:
    equal means, and the integrated cdf of the candidate weakly below that of
    the source. Both integrated cdfs are piecewise linear with kinks only at
    atoms, so comparing at every atom of either distribution decides the
    pointwise inequality. The two distributions' integer rows are joined
    over the lcm of their scales: all atoms over one common denominator D and
    all weights over another, W. One integer sweep up both atom lists, merged
    by sorting, carries the mass and moment below T = t D of the candidate
    minus the source, and the integrated cdf at t is (T * mass - moment) /
    (W D).
    """
    n = source.cols
    (d, atoms), (_, weights) = map(_joined, source._integer_rows, candidate._integer_rows)
    signed = [-x for x in weights[:n]] + weights[n:]
    if sum(x * t for x, t in zip(signed, atoms)):
        return "mean mismatch"
    mass = moment = 0
    # Taking one atom at t leaves T * mass - moment unchanged, so atoms that
    # tie may come in either order.
    for t, x in sorted(zip(atoms, signed)):
        if t * mass > moment:
            return f"integrated cdf exceeds at {Fraction(t, d)}"
        mass += x
        moment += x * t
    return None


def _joined(row, other) -> tuple[int, list[int]]:
    """The integer rows ``row`` and ``other`` over the lcm of their scales, as one row."""
    (s, xs), (t, ys) = row, other
    d = lcm(s, t)
    return d, [x * (d // s) for x in xs] + [y * (d // t) for y in ys]


def is_mpc(source: DiscreteDistribution, candidate: DiscreteDistribution) -> bool:
    """Exact convex-order test: is ``candidate`` an MPC of ``source``?"""
    return mpc_violation(source, candidate) is None


def _shadow(d: int, atoms: list[int], left: list[int], mass: int, at: Fraction) -> tuple[int, dict[int, int]]:
    """The source mass that a target atom ``at`` of ``mass`` takes, as ``(k, taken)``.

    ``atoms[i] / d`` is source atom i, and ``left[i]`` the mass of it not yet
    taken, over the masses' common denominator W. The shadow is the window of
    that mass's quantiles, of total ``mass``, with mean ``at``. As its start
    slides right, its moment grows at the rate a[right end] - a[left end] >= 0,
    which changes only where an end crosses an atom. The walk steps over those
    breakpoints; when its last step is no integer, W is multiplied by k, and
    ``taken`` maps source indices to masses over k W.
    """
    # The source atoms and at, over the lcm of d and at's denominator.
    e = at.denominator // gcd(d, at.denominator)
    atoms = [x * e for x in atoms]
    moment = mass * at.numerator * (d * e // at.denominator)
    live = [i for i, x in enumerate(left) if x]
    # The leftmost window: all of live[:hi] and the first part of live[hi].
    hi = below = window = 0
    while below + left[live[hi]] < mass:
        below += left[live[hi]]
        window += left[live[hi]] * atoms[live[hi]]
        hi += 1
    window += (mass - below) * atoms[live[hi]]
    # head: mass of live[lo] from the window's start on; tail: mass of
    # live[hi] beyond the window's end.
    lo, head, tail, k = 0, left[live[0]], below + left[live[hi]] - mass, 1
    if window > moment:
        raise InternalError(f"no shadow window for the target atom at {at}: every window's mean is above it")
    while window < moment:
        if not tail:
            hi += 1
            if hi == len(live):
                raise InternalError(f"no shadow window for the target atom at {at}: every window's mean is below it")
            tail = left[live[hi]]
        rate = atoms[live[hi]] - atoms[live[lo]]
        step = min(head, tail)
        if window + rate * step >= moment:
            g = gcd(rate, moment - window)
            k, step = rate // g, (moment - window) // g
            head, tail = head * k - step, tail * k - step
            break
        window += rate * step
        head -= step
        tail -= step
        if not head:
            lo += 1
            head = left[live[lo]]
    # With lo == hi, the last line gives the whole mass.
    taken = {live[t]: left[live[t]] * k for t in range(lo + 1, hi)}
    taken[live[lo]] = head
    taken[live[hi]] = left[live[hi]] * k - tail
    return k, taken


def find_witness(source: DiscreteDistribution, target: DiscreteDistribution) -> TransitionMatrix | None:
    """A garbling matrix certifying that ``target`` is an MPC of ``source``, or None.

    ``mpc_violation`` decides, so a pair that is not a contraction builds
    nothing; otherwise the matrix is that of ``_left_curtain``'s checked
    triple.
    """
    if mpc_violation(source, target) is not None:
        return None
    return _left_curtain(source, target).transition


def _left_curtain(source: DiscreteDistribution, target: DiscreteDistribution) -> SmpcTriple:
    """The checked triple of the left-curtain coupling of ``source`` and ``target``.

    The coupling is that of Beiglböck & Juillet (2016): target atoms are
    taken from left to right, each takes its shadow (see ``_shadow``) in the
    source mass still unused, and row i of F is the integer row of the
    masses taken from source atom i over p_i W. ``TransitionMatrix`` checks
    its range and row sums, and the full ``SmpcTriple`` check revalidates
    it. A triple that passes proves the order, so on a pair that is not a
    contraction the walk finds no shadow or the check fails, and either is
    an ``InternalError``.
    """
    n = source.cols
    (d, atoms), (e, targets) = source._integer_rows[0], target._integer_rows[0]
    _, weights = _joined(source._integer_rows[1], target._integer_rows[1])
    left, scale, scales = weights[:n], 1, []
    grid = [[0] * len(targets) for _ in range(n)]
    for j, b in enumerate(targets):
        k, taken = _shadow(d, atoms, left, weights[n + j] * scale, Fraction(b, e))
        if k != 1:
            scale *= k
            left = [x * k for x in left]
        for i, x in taken.items():
            left[i] -= x
            grid[i][j] = x
        scales.append(scale)
    # Column j's masses are over its own shadow's W; bring them to the last W.
    factors = [scale // s for s in scales]
    rows = tuple(canonical_row(p * scale, [x * f for x, f in zip(row, factors)]) for p, row in zip(weights, grid))
    try:
        return SmpcTriple(source, TransitionMatrix._checked(rows), target)
    except MpcError as exc:
        raise InternalError(f"shadow witness failed revalidation: {exc}") from exc
