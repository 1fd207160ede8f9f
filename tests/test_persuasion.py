from fractions import Fraction
from random import Random

import pytest

from mpcmix import (
    DiscreteDistribution,
    PiecewiseLinearFn,
    SmpcTriple,
    TransitionMatrix,
    check_no_profitable_deviation,
    deviation_payoff,
    decompose_full,
    reduce_support,
    solve_linear_persuasion,
)
from mpcmix.errors import CandidateError, CdfError, DomainError
from mpcmix.randgen import random_piecewise_linear, random_smpc

from cases import (
    DUEL_CDF,
    DUEL_PRIOR,
    DUEL_VALUE,
    LEFT_TARGET,
    PRIOR,
    RIGHT_TARGET,
    dist,
    worked_triple,
)


def pwl(pairs):
    return PiecewiseLinearFn.from_pairs(pairs)


class TestPiecewiseLinearFn:
    def test_interpolation(self):
        f = pwl([("0", "0"), ("1/2", "1/3"), ("3/4", "1")])
        assert f(Fraction(0)) == 0
        assert f(Fraction(1, 4)) == Fraction(1, 6)
        assert f(Fraction(1, 2)) == Fraction(1, 3)
        assert f(Fraction(5, 8)) == Fraction(2, 3)
        assert f(Fraction(3, 4)) == 1

    def test_domain_is_enforced(self):
        f = pwl([("0", "0"), ("1", "1")])
        with pytest.raises(DomainError):
            f(Fraction(-1, 10))
        with pytest.raises(DomainError):
            f(Fraction(11, 10))

    def test_knot_validation(self):
        with pytest.raises(DomainError):
            pwl([("0", "0")])
        with pytest.raises(DomainError):
            pwl([("0", "0"), ("0", "1")])

    def test_is_cdf(self):
        assert DUEL_CDF.is_cdf()
        assert not pwl([("0", "0"), ("1", "2")]).is_cdf()
        assert not pwl([("0", "0"), ("1/2", "1"), ("1", "1/2")]).is_cdf()

    def test_expectation(self):
        f = pwl([("0", "0"), ("1", "1")])
        assert f.expectation(dist(["0", "1"], ["1/4", "3/4"])) == Fraction(3, 4)

    def test_json_round_trip(self):
        assert PiecewiseLinearFn.from_json(DUEL_CDF.to_json()) == DUEL_CDF


class TestSolveLinearPersuasion:
    def test_affine_utility_pins_the_value(self):
        u = pwl([("0", "1/5"), ("1", "9/10")])
        for candidates in (PRIOR.atoms, tuple(sorted(set(PRIOR.atoms) | {Fraction(11, 20)}))):
            solution = solve_linear_persuasion(PRIOR, u, candidates)
            assert solution.value == u(PRIOR.mean())
            assert solution.candidates_exact

    def test_convex_utility_wants_full_disclosure(self):
        u = pwl([("0", "1"), ("1/2", "0"), ("1", "1")])
        solution = solve_linear_persuasion(PRIOR, u, PRIOR.atoms)
        assert solution.value == Fraction(7, 10)
        assert solution.optimum.target == PRIOR
        assert solution.reduced.target == PRIOR

    def test_concave_utility_wants_full_pooling(self):
        mean = PRIOR.mean()
        u = pwl([("0", "0"), ("11/20", "11/20"), ("1", "0")])
        candidates = tuple(sorted(set(PRIOR.atoms) | {mean}))
        solution = solve_linear_persuasion(PRIOR, u, candidates)
        assert solution.value == mean
        assert solution.optimum.target == DiscreteDistribution.point_mass(mean)

    def test_reduced_solution_is_small_and_no_worse(self):
        rng = Random(13)
        for _ in range(25):
            n = rng.randint(2, 4)
            triple = random_smpc(rng, n, rng.randint(n, 8))
            source = triple.source
            u = random_piecewise_linear(rng, source.atoms[0], source.atoms[-1])
            candidates = sorted(set(source.atoms) | {x for x, _ in u.knots})
            solution = solve_linear_persuasion(source, u, candidates)
            assert solution.candidates_exact
            assert len(solution.reduced.target.atoms) <= n
            assert u.expectation(solution.reduced.target) >= solution.value
            assert u.expectation(solution.optimum.target) == solution.value

    def test_widening_the_grid_never_hurts(self):
        rng = Random(17)
        u = pwl([("0", "1"), ("1/3", "-1"), ("1", "2")])
        base = sorted(set(PRIOR.atoms))
        wide = sorted(set(PRIOR.atoms) | {Fraction(1, 3), Fraction(2, 3)})
        narrow_value = solve_linear_persuasion(PRIOR, u, base).value
        wide_value = solve_linear_persuasion(PRIOR, u, wide).value
        assert wide_value >= narrow_value

    def test_candidate_preconditions(self):
        u = pwl([("0", "0"), ("1", "1")])
        with pytest.raises(CandidateError):
            solve_linear_persuasion(PRIOR, u, [])
        with pytest.raises(CandidateError):
            solve_linear_persuasion(PRIOR, u, [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(CandidateError):
            solve_linear_persuasion(PRIOR, u, [Fraction(0), Fraction(1)])
        with pytest.raises(CandidateError):
            solve_linear_persuasion(
                PRIOR, u, [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)]
            )
        with pytest.raises(DomainError):
            solve_linear_persuasion(
                PRIOR, pwl([("0", "0"), ("1/2", "1")]), PRIOR.atoms
            )

    def test_inexact_grid_is_flagged(self):
        u = pwl([("0", "1"), ("1/3", "-1"), ("1", "2")])
        solution = solve_linear_persuasion(PRIOR, u, PRIOR.atoms)
        assert not solution.candidates_exact


class TestReduceSupport:
    def test_linear_utility_makes_all_components_equal(self):
        u = pwl([("0", "0"), ("1", "1")])
        best, certificate = reduce_support(worked_triple(), u)
        values = {u.expectation(c.target) for _, c in certificate.components}
        assert values == {Fraction(11, 20)}
        assert u.expectation(best.target) == Fraction(11, 20)

    def test_kinked_utility_prefers_one_branch(self):
        u = pwl([("0", "0"), ("1/2", "0"), ("1", "1/2")])
        best, certificate = reduce_support(worked_triple(), u)
        assert u.expectation(LEFT_TARGET) == Fraction(7, 40)
        assert u.expectation(RIGHT_TARGET) == Fraction(7, 60)
        assert best.target == LEFT_TARGET
        mixed = sum(w * u.expectation(c.target) for w, c in certificate.components)
        assert mixed == u.expectation(worked_triple().target) == Fraction(3, 20)

    def test_narrow_triple_is_returned_unchanged(self):
        triple = SmpcTriple(PRIOR, TransitionMatrix.identity(3), PRIOR)
        u = pwl([("0", "0"), ("1", "1")])
        best, certificate = reduce_support(triple, u)
        assert best == triple
        assert certificate.components == ((Fraction(1), triple),)

    def test_component_values_average_to_the_original(self):
        rng = Random(19)
        for _ in range(25):
            n = rng.randint(2, 5)
            triple = random_smpc(rng, n, rng.randint(n + 1, 9))
            u = random_piecewise_linear(
                rng, triple.source.atoms[0], triple.source.atoms[-1]
            )
            certificate = decompose_full(triple)
            mixed = sum(w * u.expectation(c.target) for w, c in certificate.components)
            assert mixed == u.expectation(triple.target)


class TestDeviationPayoff:
    def test_full_disclosure_against_the_candidate_cdf(self):
        assert deviation_payoff(DUEL_PRIOR, DUEL_CDF) == Fraction(1, 2)

    def test_point_mass_at_the_kink(self):
        dev = DiscreteDistribution.point_mass(Fraction(1, 2))
        assert deviation_payoff(dev, DUEL_CDF) == Fraction(1, 3)

    def test_lower_endpoint_never_wins(self):
        dev = DiscreteDistribution.point_mass(Fraction(0))
        assert deviation_payoff(dev, DUEL_CDF) == 0

    def test_atom_outside_the_domain(self):
        dev = DiscreteDistribution.point_mass(Fraction(9, 10))
        with pytest.raises(DomainError):
            deviation_payoff(dev, DUEL_CDF)

    def test_rejects_non_cdfs(self):
        with pytest.raises(CdfError):
            deviation_payoff(DUEL_PRIOR, pwl([("0", "0"), ("3/4", "2")]))


class TestCheckNoProfitableDeviation:
    def test_candidate_equilibrium_is_tight(self):
        check = check_no_profitable_deviation(
            DUEL_PRIOR, DUEL_CDF, DUEL_VALUE, DUEL_PRIOR.atoms
        )
        assert check.max_payoff == Fraction(1, 2)
        assert not check.profitable
        assert len(check.witness.target.atoms) <= 3
        assert DUEL_CDF.expectation(check.witness.target) == Fraction(1, 2)

    def test_nearly_uninformative_rival_invites_deviation(self):
        # A cdf that climbs from 0 to 1 on [0, 1/100] loses to almost any
        # strategy; pooling everything at the mean 1/2 wins outright.
        steep = pwl([("0", "0"), ("1/100", "1"), ("3/4", "1")])
        check = check_no_profitable_deviation(
            DUEL_PRIOR, steep, DUEL_VALUE, DUEL_PRIOR.atoms
        )
        assert check.max_payoff == 1
        assert check.profitable
        assert deviation_payoff(DUEL_PRIOR, steep) == Fraction(5, 6)

    def test_witness_is_a_contraction_of_the_prior(self):
        check = check_no_profitable_deviation(
            DUEL_PRIOR, DUEL_CDF, DUEL_VALUE, DUEL_PRIOR.atoms
        )
        SmpcTriple(check.witness.source, check.witness.transition, check.witness.target)
        assert check.witness.source == DUEL_PRIOR


class TestConstructMixedEquilibrium:
    def test_worked_strategy_splits_into_two(self):
        mixture = decompose_full(worked_triple())
        weights = tuple(w for w, _ in mixture.components)
        assert weights == (Fraction(4, 7), Fraction(3, 7))
        assert mixture.recompose() == worked_triple().target

    def test_small_support_strategy_is_already_pure(self):
        triple = SmpcTriple(PRIOR, TransitionMatrix.identity(3), PRIOR)
        mixture = decompose_full(triple)
        assert mixture.components == ((Fraction(1), triple),)

    def test_random_strategies_recompose(self):
        rng = Random(29)
        for _ in range(25):
            n = rng.randint(2, 5)
            triple = random_smpc(rng, n, rng.randint(n, 9))
            mixture = decompose_full(triple)
            assert mixture.recompose() == triple.target
            assert all(len(c.target.atoms) <= n for _, c in mixture.components)
