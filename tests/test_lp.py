from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmix import (
    Matrix,
    PiecewiseLinearFn,
    SmpcTriple,
    StandardFormLP,
    find_witness,
    is_mpc,
    solve_linear_persuasion,
    solve_lp,
)
from mpcmix import lp as lp_module
from mpcmix import persuasion
from mpcmix.errors import DimensionError, InternalError

from cases import PRIOR, TARGET, dist, mean, point_mass

from lp_fraction_reference import reference_solve
from lp_oracle import lp_witness, oracle_solve, oracle_status
from persuasion_lp_reference import full_grid_lp
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
    """Every LP that ``run`` hands to ``mpcmix.lp.solve``, as ``(problem, start)``."""
    seen = []
    real = lp_module.solve

    def record(problem, *, start=None):
        seen.append((problem, start))
        return real(problem, start=start)

    monkeypatch.setattr(lp_module, "solve", record)
    run()
    return seen


class TestMatchesTheFractionTableau:
    """The integer tableau makes the rational tableau's pivots: equal outcomes, pivot counts included."""

    def assert_same(self, runs):
        for problem, start in runs:
            assert solve_lp(problem, start=start) == reference_solve(problem, start)

    def test_random_instances(self):
        rng = Random(61)
        self.assert_same([(random_lp(rng), None) for _ in range(80)])

    def test_witness_programs(self, monkeypatch):
        def run():
            rng = Random(73)
            for _ in range(20):
                triple = random_smpc(rng, rng.randint(1, 5), rng.randint(1, 5))
                source, target = triple.source, triple.target
                lp_witness(source, target)
                lp_witness(target, source)
                lp_witness(source, perturb_mean(rng, target))

        runs = _recorded_lps(monkeypatch, run)
        assert len(runs) == 60
        assert all(start is None for _, start in runs)
        assert {solve_lp(p).status for p, _ in runs} == {"optimal", "infeasible"}
        self.assert_same(runs)

    def test_persuasion_programs(self, monkeypatch):
        def run():
            rng = Random(79)
            for _ in range(40):
                n = rng.randint(2, 4)
                source = random_smpc(rng, n, n).source
                u = random_piecewise_linear(rng, source.atoms[0], source.atoms[-1])
                solve_linear_persuasion(source, u, sorted(set(source.atoms) | {x for x, _ in u.knots}))

        runs = _recorded_lps(monkeypatch, run)
        assert len(runs) == 40
        assert all(start is not None for _, start in runs)
        self.assert_same(runs)

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


def _weight_lp(source, utility, candidates):
    """``solve_linear_persuasion``'s weight LP on ``candidates`` and its full-disclosure start."""
    candidates = tuple(Fraction(c) for c in candidates)
    problem = persuasion._persuasion_lp(source, utility, candidates)
    return problem, persuasion._full_disclosure([candidates.index(a) for a in source.atoms])


def _pwl(*knots):
    return PiecewiseLinearFn.from_pairs(knots)


def _grid_probe_instance(m):
    """A 5-atom prior, a utility with a knot at every candidate, and the grid j/(m-1)."""
    rng = Random(7)
    grid = tuple(Fraction(j, m - 1) for j in range(m))
    utility = PiecewiseLinearFn(tuple((x, Fraction(rng.randint(-8, 8), rng.randint(1, 3))) for x in grid))
    prior = dist(["0", "1/4", "1/2", "3/4", "1"], ["1/10", "1/5", "2/5", "1/5", "1/10"])
    return prior, utility, grid


def _grid_probe(m):
    """The weight LP of ``_grid_probe_instance(m)`` and its full-disclosure start."""
    return _weight_lp(*_grid_probe_instance(m))


class TestFullDisclosureStart:
    """The persuasion LP starts at Q = P and runs phase 2 alone; a bad start is an ``InternalError``."""

    @pytest.mark.parametrize(
        "source, candidates, rows",
        [
            (point_mass("0"), ["0"], 1),
            (point_mass("1/2"), ["1/2"], 1),
            (dist(["0", "1"], ["1/4", "3/4"]), ["0", "1"], 2),
            (dist(["0", "1"], ["1/4", "3/4"]), ["0", "1/3", "1"], 2),
            (PRIOR, ["0", "1/6", "1/2", "3/4", "1"], 3),
        ],
        ids=["n=1 at 0", "n=1 at 1/2", "n=2", "n=2 interior", "n=3"],
    )
    def test_start_is_the_prior(self, source, candidates, rows):
        utility = _pwl(("0", "1/5"), ("1/3", "1"), ("1", "-1/2"))
        problem, start = _weight_lp(source, utility, candidates)
        tableau = lp_module._Tableau(problem)
        tableau._start(start)
        # The artificial columns are cut, and with n = 1 so is the mean row.
        assert len(tableau.rows) == rows
        assert all(len(row) == tableau.first_artificial + 1 for row in tableau.rows)
        levels = {b: Fraction(row[-1], row[b]) for row, b in zip(tableau.rows, tableau.basis)}
        # Each atom column is basic at its weight, and no slack is basic.
        weights = dict(zip(source.atoms, source.weights))
        grid = [Fraction(c) for c in candidates]
        assert levels == {j: weights[c] for j, c in enumerate(grid) if c in weights}
        out = solve_lp(problem, start=start)
        assert out == reference_solve(problem, start)
        assert out.value == solve_lp(problem).value

    def test_a_point_mass_at_zero_has_an_all_zero_mean_row(self):
        problem, start = _weight_lp(point_mass("0"), _pwl(("0", "1"), ("1", "2")), ["0"])
        assert problem.constraint_matrix._integer_rows[1] == (1, [0])
        assert problem.rhs[1] == 0
        assert start == [(0, 0)]
        assert solve_lp(problem, start=start) == lp_module.LPOutcome("optimal", (1,), 1, pivots=1)

    def test_interior_rows_take_the_interior_atoms(self):
        prior = dist(["0", "1/4", "1/2", "1"], ["1/4", "1/4", "1/4", "1/4"])
        candidates = ["0", "1/8", "1/4", "3/8", "1/2", "3/4", "1"]
        _, start = _weight_lp(prior, _pwl(("0", "0"), ("1", "1")), candidates)
        # Atoms at candidates 0, 2, 4 and 6; the rows of 1/2 and 1/4 are 3 and 2.
        assert start == [(0, 6), (1, 4), (3, 2), (2, 0)]

    def test_zero_pivot_entry_is_an_internal_error(self):
        # The mean row of a point mass at 0 is all zero.
        problem, _ = _weight_lp(point_mass("0"), _pwl(("0", "1"), ("1", "2")), ["0"])
        message = r"^starting pivot \(1, 0\) has a zero entry$"
        with pytest.raises(InternalError, match=message):
            solve_lp(problem, start=[(1, 0)])
        with pytest.raises(InternalError, match=message):
            reference_solve(problem, [(1, 0)])

    @pytest.mark.parametrize(
        "problem, start, row",
        [
            # x1 = 1 leaves the slack of x1 <= 1/2 at -1/2.
            (lp([1, 0], [[1, 1], [1, 0]], [1, Fraction(1, 2)], ["eq", "le"]), [(0, 0)], 1),
            # No pivot: the equality row's artificial stays basic at level 1.
            (lp([1, 0], [[1, 1], [1, 0]], [1, Fraction(1, 2)], ["eq", "le"]), [], 0),
            # All mass on 0: the mean row's artificial is basic at 3/4.
            (_weight_lp(dist(["0", "1"], ["1/4", "3/4"]), _pwl(("0", "0"), ("1", "1")), ["0", "1"])[0], [(0, 0)], 1),
            # All mass on 1: the mean row's artificial would sit at -1/4.
            (_weight_lp(dist(["0", "1"], ["1/4", "3/4"]), _pwl(("0", "0"), ("1", "1")), ["0", "1"])[0], [(0, 1)], 1),
        ],
        ids=["negative slack", "artificial at 1", "artificial at 3/4", "artificial at -1/4"],
    )
    def test_infeasible_start_is_an_internal_error(self, problem, start, row):
        message = f"^starting basis is infeasible at row {row}$"
        with pytest.raises(InternalError, match=message):
            solve_lp(problem, start=start)
        with pytest.raises(InternalError, match=message):
            reference_solve(problem, start)

    def test_persuasion_runs_one_simplex_phase(self, monkeypatch):
        runs = []
        real = lp_module._Tableau._run

        def counted(self, costs):
            runs.append(len(costs))
            return real(self, costs)

        monkeypatch.setattr(lp_module._Tableau, "_run", counted)
        utility = _pwl(("0", "1"), ("1/4", "-1"), ("3/4", "2"), ("1", "0"))
        candidates = ["0", "1/4", "1/3", "1/2", "3/4", "1"]
        solve_linear_persuasion(PRIOR, utility, candidates)
        # Phase 2 alone, on the 6 weights and the slack of the one interior
        # atom's row, with no artificial column.
        assert runs == [7]
        # Without the start, phase 1 runs first, with the 2 artificial columns.
        solve_lp(_weight_lp(PRIOR, utility, candidates)[0])
        assert runs == [7, 9, 7]

    def test_start_and_phase_1_reach_equal_values(self):
        rng = Random(83)
        for _ in range(40):
            n = rng.randint(2, 5)
            source = random_smpc(rng, n, n).source
            lo, hi = source.atoms[0], source.atoms[-1]
            u = random_piecewise_linear(rng, lo, hi, interior=rng.randint(1, 4))
            extra = {lo + (hi - lo) * Fraction(rng.randint(1, 9), 10) for _ in range(rng.randint(0, 4))}
            candidates = sorted(set(source.atoms) | {x for x, _ in u.knots} | extra)
            problem, start = _weight_lp(source, u, candidates)
            started, phase_1 = solve_lp(problem, start=start), solve_lp(problem)
            assert started.status == phase_1.status == "optimal"
            assert started.value == phase_1.value
            assert sum(1 for q in started.solution if q) <= n

    def test_grid_probe_pivots(self):
        problem, start = _grid_probe(41)
        started, phase_1 = solve_lp(problem, start=start), solve_lp(problem)
        assert phase_1.pivots == 61
        assert started.pivots <= 25
        # With an order row at every interior candidate, phase 1 took 87 pivots.
        full_grid = solve_lp(full_grid_lp(*_grid_probe_instance(41)))
        assert full_grid.pivots == 87
        assert started.value == phase_1.value == full_grid.value == Fraction(287, 60)

    def test_grid_probe_rows_do_not_grow_with_the_grid(self):
        problem, start = _grid_probe(321)
        assert problem.constraint_matrix.rows == 5
        started = solve_lp(problem, start=start)
        assert started.status == "optimal"
        assert started.pivots <= 40
