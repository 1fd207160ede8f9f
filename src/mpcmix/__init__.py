"""Exact mixtures of mean-preserving contractions.

Any finitely supported mean-preserving contraction of an n-atom distribution
can be written as a mixture of contractions with at most n atoms each. This
package computes that mixture exactly over the rationals, certifies garbling
triples, finds witness matrices by exact linear programming, and applies the
machinery to linear and competitive persuasion problems.
"""

from .decomposition import (
    Mixture,
    SplitCertificate,
    SplitResult,
    UniquenessReport,
    decompose_full,
    embed_transition,
    split_once,
    verify_uniqueness,
    zero_column,
)
from .distributions import (
    DiscreteDistribution,
    SmpcTriple,
    TransitionMatrix,
    apply_transition,
    is_mpc,
    mpc_violation,
)
from .errors import MpcError
from .linalg import Matrix, format_rational, null_space_vector, parse_rational, rank
from .lp import LPOutcome, StandardFormLP, find_witness
from .lp import solve as solve_lp
from .persuasion import (
    DeviationCheck,
    PersuasionSolution,
    PiecewiseLinearFn,
    check_no_profitable_deviation,
    construct_mixed_equilibrium,
    deviation_payoff,
    reduce_support,
    solve_linear_persuasion,
)

__version__ = "0.1.0"

__all__ = [
    "DeviationCheck",
    "DiscreteDistribution",
    "LPOutcome",
    "Matrix",
    "Mixture",
    "MpcError",
    "PersuasionSolution",
    "PiecewiseLinearFn",
    "SmpcTriple",
    "SplitCertificate",
    "SplitResult",
    "StandardFormLP",
    "TransitionMatrix",
    "UniquenessReport",
    "apply_transition",
    "check_no_profitable_deviation",
    "construct_mixed_equilibrium",
    "decompose_full",
    "deviation_payoff",
    "embed_transition",
    "find_witness",
    "format_rational",
    "is_mpc",
    "mpc_violation",
    "null_space_vector",
    "parse_rational",
    "rank",
    "reduce_support",
    "solve_linear_persuasion",
    "solve_lp",
    "split_once",
    "verify_uniqueness",
    "zero_column",
]
