"""Exact mixtures of mean-preserving contractions.

Any finitely supported mean-preserving contraction of an n-atom distribution
can be written as a mixture of contractions with at most n atoms each. This
package computes that mixture exactly over the rationals, certifies garbling
triples, builds witness matrices as left-curtain couplings, and applies the
machinery to linear and competitive persuasion problems: an exact linear
program over the target's weights on a candidate grid chooses the
contraction, and its witness is the garbling.
"""

from .decomposition import (
    Mixture,
    SplitCertificate,
    SplitResult,
    UniquenessReport,
    decompose_full,
    split_once,
    verify_uniqueness,
    zero_column,
)
from .distributions import (
    DiscreteDistribution,
    SmpcTriple,
    TransitionMatrix,
    apply_transition,
    find_witness,
    is_mpc,
    mpc_violation,
)
from .errors import MpcError
from .linalg import Matrix, parse_rational
from .persuasion import (
    DeviationCheck,
    PersuasionSolution,
    PiecewiseLinearFn,
    check_no_profitable_deviation,
    solve_linear_persuasion,
)

__version__ = "0.1.0"

__all__ = [
    "DeviationCheck",
    "DiscreteDistribution",
    "Matrix",
    "Mixture",
    "MpcError",
    "PersuasionSolution",
    "PiecewiseLinearFn",
    "SmpcTriple",
    "SplitCertificate",
    "SplitResult",
    "TransitionMatrix",
    "UniquenessReport",
    "apply_transition",
    "check_no_profitable_deviation",
    "decompose_full",
    "find_witness",
    "is_mpc",
    "mpc_violation",
    "parse_rational",
    "solve_linear_persuasion",
    "split_once",
    "verify_uniqueness",
    "zero_column",
]
