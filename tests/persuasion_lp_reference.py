"""The persuasion weight LP as it was built over ``Fraction`` entries: a test-only reference.

``mpcmix.persuasion._persuasion_lp`` builds the LP in integer sweeps over one
common denominator. This is the earlier build, kept unchanged: every
``(c_k - c_j)+`` entry is a ``Fraction`` and ``Matrix`` converts each row to
integers, the utility is evaluated at each candidate by scanning its knots,
and the prior's integrated cdf takes one sum per interior candidate. Tests
require the same integer rows, right-hand side, objective and senses from
both.
"""

from fractions import Fraction

from mpcmix import lp
from mpcmix.linalg import Matrix

from cases import integrated_cdf, mean


def persuasion_lp(source, utility, candidates) -> lp.StandardFormLP:
    """``solve_linear_persuasion``'s LP on the checked ``candidates``, a tuple of ``Fraction``."""
    interior = candidates[1:-1]
    zero, one = Fraction(0), Fraction(1)
    # Column j is q_j. After the mass and mean rows, the row of each interior
    # candidate c bounds the target's integrated cdf there by the prior's:
    # sum_j q_j max(c - c_j, 0) <= I_P(c).
    rows = [(one,) * len(candidates), candidates]
    rows += [tuple(max(c - x, zero) for x in candidates) for c in interior]
    return lp.StandardFormLP(
        objective=tuple(utility(c) for c in candidates),
        constraint_matrix=Matrix(tuple(rows)),
        rhs=(one, mean(source), *(integrated_cdf(source, c) for c in interior)),
        senses=("eq", "eq") + ("le",) * len(interior),
    )
