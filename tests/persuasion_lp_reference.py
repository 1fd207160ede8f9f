"""The persuasion weight LP built over ``Fraction`` entries: a test-only reference.

``mpcmix.persuasion._persuasion_lp`` builds the LP in integer sweeps over one
common denominator. ``persuasion_lp`` builds the same LP entry by entry: every
``(a_i - c_j)+`` entry is a ``Fraction`` and ``Matrix`` converts each row to
integers, the utility is evaluated at each candidate by scanning its knots,
and the prior's integrated cdf takes one sum per prior atom above the first.
Tests require the same integer rows of A, the same values of the right-hand
side and the objective, and the same senses from both.

``full_grid_lp`` states the order with more rows: the mass row, the mean
row, and one integrated-cdf row per interior candidate rather than per prior
atom. Tests use it to check that the package's rows cut out the same
feasible set.

``weight_lp`` is the package's own build and its start, the prior's atom
columns, as ``solve_linear_persuasion`` hands them to ``mpcmix.lp.solve``.
"""

from fractions import Fraction

from mpcmix import lp, persuasion
from mpcmix.linalg import integer_row

from cases import integrated_cdf, mean
from lp_fraction_reference import standard_form


def _lp(utility, candidates, rows, rhs, senses) -> lp.StandardFormLP:
    return standard_form((utility(c) for c in candidates), rows, rhs, senses)


def _cdf_row(candidates, point):
    """sum_j q_j max(point - c_j, 0), the target's integrated cdf at ``point``."""
    return tuple(max(point - c, Fraction(0)) for c in candidates)


def persuasion_lp(source, utility, candidates) -> lp.StandardFormLP:
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


def full_grid_lp(source, utility, candidates) -> lp.StandardFormLP:
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
