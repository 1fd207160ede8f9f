from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmix import (
    Matrix,
    SmpcTriple,
    StandardFormLP,
    find_witness,
    is_mpc,
    solve_linear_persuasion,
    solve_lp,
)
from mpcmix import lp as lp_module
from mpcmix.errors import DimensionError

from cases import PRIOR, TARGET, dist, mean, point_mass

from lp_fraction_reference import reference_solve
from lp_oracle import lp_witness, oracle_solve, oracle_status
from random_instances import perturb_mean, random_lp, random_piecewise_linear, random_smpc


def lp(objective, rows, rhs, senses):
    return StandardFormLP(
        objective=tuple(Fraction(c) for c in objective),
        constraint_matrix=Matrix.from_rows(rows),
        rhs=tuple(Fraction(b) for b in rhs),
        senses=tuple(senses),
    )


class TestSolve:
    def test_box(self):
        out = solve_lp(lp([1, 1], [[1, 0], [0, 1]], [1, 1], ["le", "le"]))
        assert out.status == "optimal"
        assert out.value == 2
        assert out.solution == (Fraction(1), Fraction(1))

    def test_contradictory(self):
        out = solve_lp(lp([1], [[1], [1]], [1, 0], ["eq", "le"]))
        assert out.status == "infeasible"

    def test_unbounded(self):
        out = solve_lp(lp([1], [[1]], [1], ["ge"]))
        assert out.status == "unbounded"

    def test_equality_and_ge(self):
        # max x + 2y s.t. x + y = 3, y >= 1, x >= 0, y >= 0
        out = solve_lp(lp([1, 2], [[1, 1], [0, 1]], [3, 1], ["eq", "ge"]))
        assert out.status == "optimal"
        assert out.value == 6
        assert out.solution == (Fraction(0), Fraction(3))

    def test_negative_rhs(self):
        # -x <= -2 is x >= 2
        out = solve_lp(lp([-1], [[-1]], [-2], ["le"]))
        assert out.status == "optimal"
        assert out.solution == (Fraction(2),)
        assert out.value == -2

    def test_degenerate_vertex_terminates(self):
        out = solve_lp(
            lp(
                [1, 1, 1],
                [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
                [1, 1, 1, Fraction(3, 2)],
                ["le", "le", "le", "le"],
            )
        )
        assert out.status == "optimal"
        assert out.value == Fraction(3, 2)

    def test_exact_fractional_answer(self):
        out = solve_lp(
            lp(
                [Fraction(1, 3), Fraction(1, 7)],
                [[Fraction(2, 5), 1], [1, Fraction(3, 11)]],
                [1, 1],
                ["le", "le"],
            )
        )
        assert out.status == "optimal"
        _, oracle_value, _ = oracle_solve(
            lp(
                [Fraction(1, 3), Fraction(1, 7)],
                [[Fraction(2, 5), 1], [1, Fraction(3, 11)]],
                [1, 1],
                ["le", "le"],
            )
        )
        assert out.value == oracle_value

    def test_random_instances_match_the_oracle(self):
        rng = Random(61)
        for _ in range(80):
            problem = random_lp(rng)
            out = solve_lp(problem)
            status, value, _ = oracle_solve(problem)
            assert out.status == status
            if status == "optimal":
                assert out.value == value
                # the reported point must satisfy every constraint exactly
                for row, b, sense in zip(
                    problem.constraint_matrix.entries, problem.rhs, problem.senses
                ):
                    lhs = sum(a * x for a, x in zip(row, out.solution))
                    assert (
                        lhs <= b if sense == "le" else lhs >= b if sense == "ge" else lhs == b
                    )
                assert all(x >= 0 for x in out.solution)

    def test_pivot_counts_stay_below_the_basis_bound(self):
        rng = Random(67)
        for _ in range(40):
            problem = random_lp(rng)
            out = solve_lp(problem)
            rows = problem.constraint_matrix.rows
            n_slack = sum(1 for s in problem.senses if s != "eq")
            width = len(problem.objective) + n_slack + rows
            assert out.pivots <= 2 * comb(width, rows)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            lp([1, 2], [[1]], [1], ["le"])
        with pytest.raises(DimensionError, match="^rhs/senses length does not match row count$"):
            lp([1], [[1]], [1, 2], ["le"])
        with pytest.raises(DimensionError, match="^rhs/senses length does not match row count$"):
            lp([1], [[1]], [1], ["le", "ge"])
        with pytest.raises(ValueError, match="^unknown sense 'lt'$"):
            lp([1], [[1]], [1], ["lt"])


@st.composite
def small_lps(draw):
    """Up to 4 variables and 4 rows of small rationals, any senses; some are unbounded."""
    nvars = draw(st.integers(1, 4), label="nvars")
    nrows = draw(st.integers(1, 4), label="nrows")
    small = st.fractions(-3, 3, max_denominator=3)
    return StandardFormLP(
        objective=tuple(draw(st.lists(small, min_size=nvars, max_size=nvars), label="objective")),
        constraint_matrix=Matrix(
            tuple(tuple(draw(st.lists(small, min_size=nvars, max_size=nvars))) for _ in range(nrows))
        ),
        rhs=tuple(draw(st.lists(st.fractions(-4, 6, max_denominator=2), min_size=nrows, max_size=nrows), label="rhs")),
        senses=tuple(draw(st.lists(st.sampled_from(["le", "ge", "eq"]), min_size=nrows, max_size=nrows), label="senses")),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_lps())
def test_simplex_matches_the_oracle_on_generated_programs(problem):
    out = solve_lp(problem)
    assert (out.status, out.value) == oracle_status(problem)


class TestFindWitness:
    def test_worked_pair_has_a_witness(self):
        witness = find_witness(PRIOR, TARGET)
        assert witness is not None
        SmpcTriple(PRIOR, witness, TARGET)

    def test_full_pooling_witness_is_the_ones_column(self):
        target = point_mass(mean(PRIOR))
        witness = find_witness(PRIOR, target)
        assert witness is not None
        assert witness.entries == ((Fraction(1),), (Fraction(1),), (Fraction(1),))

    def test_mean_mismatch_has_no_witness(self):
        shifted = dist(["0", "1/2", "9/8"], ["3/10", "3/10", "2/5"])
        assert find_witness(PRIOR, shifted) is None

    def test_spread_has_no_witness(self):
        pooled = point_mass(Fraction(1, 2))
        spread = dist(["0", "1"], ["1/2", "1/2"])
        assert find_witness(pooled, spread) is None
        assert find_witness(spread, pooled) is not None

    def test_witness_exists_iff_contraction(self):
        rng = Random(71)
        for _ in range(40):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            triple = random_smpc(rng, n, m)
            source, target = triple.source, triple.target
            witness = find_witness(source, target)
            assert witness is not None
            assert is_mpc(source, target)
            SmpcTriple(source, witness, target)
            negative = perturb_mean(rng, target)
            assert find_witness(source, negative) is None
            assert not is_mpc(source, negative)


def _recorded_lps(monkeypatch, run):
    """Every LP that ``run`` hands to ``mpcmix.lp.solve``."""
    seen = []
    real = lp_module.solve

    def record(problem):
        seen.append(problem)
        return real(problem)

    monkeypatch.setattr(lp_module, "solve", record)
    run()
    return seen


class TestMatchesTheFractionTableau:
    """The integer tableau makes the rational tableau's pivots: equal outcomes, pivot counts included."""

    def assert_same(self, problems):
        for problem in problems:
            assert solve_lp(problem) == reference_solve(problem)

    def test_random_instances(self):
        rng = Random(61)
        self.assert_same([random_lp(rng) for _ in range(80)])

    def test_witness_programs(self, monkeypatch):
        def run():
            rng = Random(73)
            for _ in range(20):
                triple = random_smpc(rng, rng.randint(1, 5), rng.randint(1, 5))
                source, target = triple.source, triple.target
                lp_witness(source, target)
                lp_witness(target, source)
                lp_witness(source, perturb_mean(rng, target))

        problems = _recorded_lps(monkeypatch, run)
        assert len(problems) == 60
        assert {solve_lp(p).status for p in problems} == {"optimal", "infeasible"}
        self.assert_same(problems)

    def test_persuasion_programs(self, monkeypatch):
        def run():
            rng = Random(79)
            for _ in range(40):
                n = rng.randint(2, 4)
                source = random_smpc(rng, n, n).source
                u = random_piecewise_linear(rng, source.atoms[0], source.atoms[-1])
                solve_linear_persuasion(source, u, sorted(set(source.atoms) | {x for x, _ in u.knots}))

        problems = _recorded_lps(monkeypatch, run)
        assert len(problems) == 40
        self.assert_same(problems)

    def test_large_coprime_denominators(self):
        problem = lp(
            [Fraction(1, 1000081), Fraction(-1, 999907), Fraction(1, 1000099)],
            [
                [Fraction(1, 999983), Fraction(2, 1000003), Fraction(3, 1000033)],
                [Fraction(5, 1000037), Fraction(7, 999979), Fraction(-1, 999961)],
                [1, 1, 1],
            ],
            [Fraction(1, 1000039), Fraction(1, 999953), 1],
            ["le", "ge", "le"],
        )
        out = solve_lp(problem)
        assert out == reference_solve(problem)
        assert out.solution == (Fraction(999983, 1000039), 0, 0)

    def test_rank_deficient_equalities_expel_artificials(self):
        # The third row is the sum of the first two. Phase 1 ends with two
        # artificials basic at level zero: one leaves on a negative structural
        # entry, and the other's row is redundant and is dropped.
        problem = lp(
            [1, -3, 1, -1],
            [
                [-2, Fraction(-2, 3), Fraction(1, 3), 0],
                [0, Fraction(-2, 3), Fraction(2, 3), 3],
                [-2, Fraction(-4, 3), 1, 3],
            ],
            [Fraction(-2, 3), 0, Fraction(-2, 3)],
            ["eq", "eq", "eq"],
        )
        out = solve_lp(problem)
        assert out == reference_solve(problem)
        assert out == lp_module.LPOutcome(
            "optimal", (Fraction(1, 3), 0, 0, 0), Fraction(1, 3), pivots=2
        )
