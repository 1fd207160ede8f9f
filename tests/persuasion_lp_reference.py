"""The persuasion weight LP built over ``Fraction`` entries: a test-only reference.

``mpcmix.persuasion._persuasion_lp`` builds the LP in integer sweeps over one
common denominator. ``persuasion_lp`` builds the same LP entry by entry: every
``(a_i - c_j)+`` entry is a ``Fraction`` and ``Matrix`` converts each row to
integers, the utility is evaluated at each candidate by scanning its knots,
and the prior's integrated cdf takes one sum per interior prior atom. Tests
require the same integer rows, right-hand side, objective and senses from
both.

``full_grid_lp`` is the earlier form of the LP, with one integrated-cdf row
per interior candidate rather than per interior prior atom. Tests use it to
check that the fewer rows cut out the same feasible set.

``weight_lp`` is the package's own build and its full-disclosure start, as
``solve_linear_persuasion`` hands them to ``mpcmix.lp.solve``.
"""

from fractions import Fraction

from mpcmix import lp, persuasion
from mpcmix.linalg import Matrix

from cases import integrated_cdf, mean


def _order_lp(source, utility, candidates, points) -> lp.StandardFormLP:
    """The mass row, the mean row unless the prior is one atom, then one row
    per point c in ``points``: sum_j q_j max(c - c_j, 0) <= I_P(c)."""
    zero, one = Fraction(0), Fraction(1)
    rows, rhs = [(one,) * len(candidates)], [one]
    if len(source.atoms) > 1:  # a one-atom prior's one candidate is its mean
        rows.append(candidates)
        rhs.append(mean(source))
    rows += [tuple(max(c - x, zero) for x in candidates) for c in points]
    return lp.StandardFormLP(
        objective=tuple(utility(c) for c in candidates),
        constraint_matrix=Matrix(tuple(rows)),
        rhs=(*rhs, *(integrated_cdf(source, c) for c in points)),
        senses=("eq",) * len(rhs) + ("le",) * len(points),
    )


def persuasion_lp(source, utility, candidates) -> lp.StandardFormLP:
    """``solve_linear_persuasion``'s LP on the checked ``candidates``, a tuple of ``Fraction``.

    Column j is q_j; the order rows sit at the prior's interior atoms, so
    there are n rows in all.
    """
    return _order_lp(source, utility, candidates, source.atoms[1:-1])


def full_grid_lp(source, utility, candidates) -> lp.StandardFormLP:
    """The same weight LP with an order row at every interior candidate."""
    return _order_lp(source, utility, candidates, candidates[1:-1])


def weight_lp(source, utility, candidates):
    """``persuasion._persuasion_lp`` on ``candidates`` and its ``_full_disclosure`` start."""
    candidates = tuple(Fraction(c) for c in candidates)
    atom_columns = [candidates.index(a) for a in source.atoms]
    problem = persuasion._persuasion_lp(source, utility, candidates, atom_columns)
    return problem, persuasion._full_disclosure(atom_columns)
