"""Linear persuasion over posterior means, and two-seller deviation checks.

A sender choosing an information structure for a payoff that depends only on
the posterior mean is really choosing a mean-preserving contraction of the
prior. With a piecewise-linear payoff and a candidate grid containing the
prior's atoms and every payoff kink, the problem becomes a finite exact LP:
between grid points the payoff is linear, so mass at an interior atom can be
slid to the two neighboring grid points without changing the objective or
leaving the feasible set. The grid-restricted optimum then equals the
unrestricted one; with a coarser grid it is still an exact lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import Mixture, decompose_full
from .distributions import DiscreteDistribution, SmpcTriple, TransitionMatrix, apply_transition
from .errors import CandidateError, CdfError, DomainError, InternalError
from .linalg import Matrix, format_rational, parse_rational
from .lp import solve_garbling


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Piecewise-linear function given by knots; evaluation interpolates.

    Evaluation outside the knot range is an error rather than an
    extrapolation.
    """

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        if len(self.knots) < 2:
            raise DomainError("piecewise-linear function needs at least 2 knots")
        for k in range(len(self.knots) - 1):
            if self.knots[k][0] >= self.knots[k + 1][0]:
                raise DomainError("knot x-coordinates must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs) -> "PiecewiseLinearFn":
        return cls(tuple((parse_rational(x), parse_rational(y)) for x, y in pairs))

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.knots[0][0], self.knots[-1][0]

    def __call__(self, x: Fraction) -> Fraction:
        lo, hi = self.domain
        if x < lo or x > hi:
            raise DomainError(
                f"{format_rational(x)} outside domain "
                f"[{format_rational(lo)}, {format_rational(hi)}]"
            )
        for k in range(len(self.knots) - 1):
            x0, y0 = self.knots[k]
            x1, y1 = self.knots[k + 1]
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        raise AssertionError("unreachable")

    def is_cdf(self) -> bool:
        """Continuous cdf shape: starts at 0, ends at 1, never decreases."""
        if self.knots[0][1] != 0 or self.knots[-1][1] != 1:
            return False
        return all(
            self.knots[k][1] <= self.knots[k + 1][1] for k in range(len(self.knots) - 1)
        )

    def expectation(self, dist: DiscreteDistribution) -> Fraction:
        return sum(w * self(a) for a, w in zip(dist.atoms, dist.weights))

    def to_json(self) -> dict:
        return {
            "knots": [[format_rational(x), format_rational(y)] for x, y in self.knots]
        }

    @classmethod
    def from_json(cls, obj) -> "PiecewiseLinearFn":
        if not isinstance(obj, dict) or "knots" not in obj:
            raise ValueError("piecewise-linear JSON needs 'knots'")
        return cls.from_pairs(obj["knots"])


@dataclass(frozen=True)
class PersuasionSolution:
    """LP optimum plus its reduction to a small-support signal.

    ``reduced`` is the best single component of ``certificate`` (the full
    decomposition of ``optimum``); its expected payoff is at least ``value``
    because the original value is the weight-average over components.
    ``candidates_exact`` records whether the candidate grid contained every
    payoff kink inside the prior's range, in which case ``value`` solves the
    unrestricted problem rather than bounding it.
    """

    optimum: SmpcTriple
    value: Fraction
    reduced: SmpcTriple
    certificate: Mixture
    candidates_exact: bool


def reduce_support(
    triple: SmpcTriple, utility: PiecewiseLinearFn
) -> tuple[SmpcTriple, Mixture]:
    """Best few-atom component of the triple's full decomposition.

    Returns (best, certificate) where certificate is the whole mixture and
    best maximizes expected utility among its components. The weight-average
    of component values equals the original expected utility, so the best one
    weakly improves on it while using at most n atoms.
    """
    certificate = decompose_full(triple)
    best_weight_component = certificate.components[0]
    best_value = utility.expectation(best_weight_component[1].target)
    for weight, component in certificate.components[1:]:
        v = utility.expectation(component.target)
        if v > best_value:
            best_value = v
            best_weight_component = (weight, component)
    return best_weight_component[1], certificate


def solve_linear_persuasion(
    source: DiscreteDistribution,
    utility: PiecewiseLinearFn,
    candidates,
) -> PersuasionSolution:
    """Maximize expected utility over contractions supported on the candidates.

    Variables are the garbling entries F[i][j] (source atom i to candidate j),
    constrained so every row sums to 1 and every candidate column's barycenter
    matches its position. Full disclosure is always feasible because the
    candidates must contain every source atom.
    """
    candidates = tuple(parse_rational(x) for x in candidates)
    if not candidates:
        raise CandidateError("candidate list is empty")
    for k in range(len(candidates) - 1):
        if candidates[k] >= candidates[k + 1]:
            raise CandidateError("candidates must be strictly increasing")
    a1, an = source.atoms[0], source.atoms[-1]
    if candidates[0] < a1 or candidates[-1] > an:
        raise CandidateError("candidates must lie within the prior's atom range")
    candidate_set = set(candidates)
    if not set(source.atoms) <= candidate_set:
        raise CandidateError("candidates must include every atom of the prior")
    lo, hi = utility.domain
    if lo > a1 or hi < an:
        raise DomainError("utility domain must cover the prior's atom range")

    p, a = source.weights, source.atoms
    values = [utility(c) for c in candidates]
    outcome, grid = solve_garbling(
        len(p),
        len(candidates),
        [
            (j, tuple(w * (x - c) for w, x in zip(p, a)), Fraction(0))
            for j, c in enumerate(candidates)
        ],
        [w * v for w in p for v in values],
    )
    if grid is None:  # full disclosure is feasible, box is bounded
        raise InternalError(f"persuasion LP came back {outcome.status}")
    optimum = apply_transition(source, TransitionMatrix(Matrix(grid)))
    reduced, certificate = reduce_support(optimum, utility)
    exact = all(x in candidate_set for x, _ in utility.knots if a1 < x < an)
    return PersuasionSolution(
        optimum=optimum,
        value=outcome.value,
        reduced=reduced,
        certificate=certificate,
        candidates_exact=exact,
    )


def deviation_payoff(
    deviation: DiscreteDistribution, opponent_cdf: PiecewiseLinearFn
) -> Fraction:
    """Win probability of a posterior-mean distribution against an atomless rival.

    With the opponent's posterior mean drawn from a continuous cdf, ties have
    probability zero and the payoff is just the expected cdf value.
    """
    if not opponent_cdf.is_cdf():
        raise CdfError("opponent distribution must be a continuous cdf (0 to 1, nondecreasing)")
    lo, hi = opponent_cdf.domain
    for atom in deviation.atoms:
        if atom < lo or atom > hi:
            raise DomainError(
                f"deviation atom {format_rational(atom)} outside the cdf domain"
            )
    return opponent_cdf.expectation(deviation)


@dataclass(frozen=True)
class DeviationCheck:
    """Best deviation payoff against a fixed opponent cdf, with a witness."""

    max_payoff: Fraction
    witness: SmpcTriple
    equilibrium_value: Fraction
    solution: PersuasionSolution

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

    The opponent's cdf acts as the deviator's utility. Folding the cdf knots
    into the candidate grid makes the grid restriction exact: the payoff is
    linear between knots, so some optimal deviation lives on the grid. The
    witness has at most n atoms and attains ``max_payoff`` exactly.
    """
    if not opponent_cdf.is_cdf():
        raise CdfError("opponent distribution must be a continuous cdf (0 to 1, nondecreasing)")
    a1, an = source.atoms[0], source.atoms[-1]
    merged = set(parse_rational(x) for x in candidates)
    merged.update(x for x, _ in opponent_cdf.knots if a1 <= x <= an)
    solution = solve_linear_persuasion(source, opponent_cdf, sorted(merged))
    return DeviationCheck(
        max_payoff=solution.value,
        witness=solution.reduced,
        equilibrium_value=parse_rational(equilibrium_value),
        solution=solution,
    )


def construct_mixed_equilibrium(triple: SmpcTriple) -> Mixture:
    """Spread a candidate pure strategy over few-atom contractions.

    The mixture induces exactly the same distribution over posterior means as
    the original target (verified by recomposition), hence the same payoff
    profile against any opponent strategy.
    """
    mixture = decompose_full(triple)
    if mixture.recompose() != triple.target:
        raise InternalError("mixture does not recompose to the original strategy")
    return mixture
