"""The persuasion weight LP built over ``Fraction`` entries: a test-only reference.

``mpcmix.persuasion._persuasion_lp`` builds the LP in integer sweeps over one
common denominator. ``persuasion_lp`` builds the same LP entry by entry: every
``(a_i - c_j)+`` entry is a ``Fraction`` and ``Matrix`` converts each row to
integers, the utility is evaluated at each candidate by scanning its knots,
and the prior's integrated cdf takes one sum per prior atom above the first.
It states the interior atoms' rows as ``le`` rows of a ``GeneralLP``, and
tests require that the package's LP is its ``equality_form``: the same
integer rows of A, slack columns included, and the same values of the
right-hand side and the objective.

``full_grid_lp`` states the order with more rows: the mass row, the mean
row, and one integrated-cdf row per interior candidate rather than per prior
atom. Tests use it to check that the package's rows cut out the same
feasible set.

``weight_lp`` is the package's own build and its start, the prior's atom
columns, as ``solve_linear_persuasion`` hands them to ``mpcmix.lp.solve``.

The package reads a ``PiecewiseLinearFn`` only through its integer rows.
For tests to compare against, ``knots``, ``evaluate`` and ``knots_json``
read one through ``entries``, as ``Fraction`` knots, and
``deviation_payoff`` is the payoff that ``check_no_profitable_deviation``
maximizes.
"""

from fractions import Fraction

from mpcmix import persuasion
from mpcmix.errors import CdfError, DomainError
from mpcmix.linalg import integer_row

from cases import integrated_cdf, mean
from lp_fraction_reference import GeneralLP, standard_form


def knots(fn) -> tuple[tuple[Fraction, Fraction], ...]:
    """The knots of the piecewise-linear ``fn`` as ``(x, y)`` pairs."""
    return tuple(zip(*fn.entries))


def evaluate(fn, x) -> Fraction:
    """``fn(x)``, interpolated between the knots around ``x``.

    Outside the knot range it raises the ``DomainError`` whose text
    ``PiecewiseLinearFn.expectation`` gives for an atom there.
    """
    pairs = knots(fn)
    lo, hi = pairs[0][0], pairs[-1][0]
    if x < lo or x > hi:
        raise DomainError(f"{x} outside domain [{lo}, {hi}]")
    for (x0, y0), (x1, y1) in zip(pairs, pairs[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError("unreachable")


def deviation_payoff(deviation, opponent_cdf) -> Fraction:
    """Win probability of ``deviation`` against a rival whose posterior mean has ``opponent_cdf``.

    With an atomless rival, ties have probability zero and the payoff is the
    expected cdf value, which ``check_no_profitable_deviation`` maximizes. A
    function that is not a cdf is the check's ``CdfError``, and an atom
    outside the cdf's domain is ``expectation``'s ``DomainError``.
    """
    if not opponent_cdf.is_cdf():
        raise CdfError("opponent distribution must be a continuous cdf (0 to 1, nondecreasing)")
    return opponent_cdf.expectation(deviation)


def knots_json(fn) -> dict:
    """``fn`` as the CLI's piecewise-linear JSON, ``{"knots": [[x, y], ...]}``."""
    return {"knots": [[str(x), str(y)] for x, y in knots(fn)]}


def _lp(utility, candidates, rows, rhs, senses) -> GeneralLP:
    return standard_form((evaluate(utility, c) for c in candidates), rows, rhs, senses)


def _cdf_row(candidates, point):
    """sum_j q_j max(point - c_j, 0), the target's integrated cdf at ``point``."""
    return tuple(max(point - c, Fraction(0)) for c in candidates)


def persuasion_lp(source, utility, candidates) -> GeneralLP:
    """``solve_linear_persuasion``'s LP on the checked ``candidates``, a tuple of ``Fraction``.

    Column j is q_j. Row i - 2 bounds the integrated cdf at the prior atom
    a_i, i = 2..n, with equality at a_n, and the mass row comes last: n rows
    in all.
    """
    upper = source.atoms[1:]
    return _lp(
        utility,
        candidates,
        [_cdf_row(candidates, a) for a in upper] + [(Fraction(1),) * len(candidates)],
        [integrated_cdf(source, a) for a in upper] + [Fraction(1)],
        ["le"] * len(upper[:-1]) + ["eq"] * len(upper[-1:]) + ["eq"],
    )


def full_grid_lp(source, utility, candidates) -> GeneralLP:
    """The weight LP with the mass row, the mean row unless the prior is one
    atom, and an order row at every interior candidate."""
    rows, rhs = [(Fraction(1),) * len(candidates)], [Fraction(1)]
    if len(source.atoms) > 1:  # a one-atom prior's one candidate is its mean
        rows.append(candidates)
        rhs.append(mean(source))
    interior = candidates[1:-1]
    return _lp(
        utility,
        candidates,
        rows + [_cdf_row(candidates, c) for c in interior],
        rhs + [integrated_cdf(source, c) for c in interior],
        ["eq"] * len(rhs) + ["le"] * len(interior),
    )


def weight_lp(source, utility, candidates):
    """``persuasion._persuasion_lp`` on ``candidates`` and its start, the prior's atom columns."""
    candidates = tuple(Fraction(c) for c in candidates)
    atom_columns = [candidates.index(a) for a in source.atoms]
    return persuasion._persuasion_lp(source, utility, integer_row(candidates), atom_columns), atom_columns
