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
    find_witness,
    is_mpc,
    solve_linear_persuasion,
)
from mpcmix import lp as lp_module
from mpcmix.errors import DimensionError, InternalError
from mpcmix.lp import LPOutcome, StandardFormLP, solve

from cases import PRIOR, TARGET, dist, mean, point_mass

from lp_fraction_reference import fractions_of, reference_solve, standard_form
from lp_oracle import oracle_solve, oracle_status
from persuasion_lp_reference import full_grid_lp, knots, weight_lp
from random_instances import perturb_mean, random_lp, random_piecewise_linear, random_smpc


def lp(objective, rows, rhs, senses):
    return standard_form(map(Fraction, objective), Matrix.from_rows(rows), map(Fraction, rhs), senses)


def solve_lp(problem, start):
    """``mpcmix.lp.solve`` as imported, so a test's patch of ``lp.solve`` does not reach it."""
    return solve(problem, start=start)


class TestSolve:
    """The reference's two-phase simplex, which decides the LPs that have no known vertex."""

    def test_box(self):
        out = reference_solve(lp([1, 1], [[1, 0], [0, 1]], [1, 1], ["le", "le"]))
        assert out.status == "optimal"
        assert out.value == 2
        assert out.solution == (Fraction(1), Fraction(1))

    def test_contradictory(self):
        out = reference_solve(lp([1], [[1], [1]], [1, 0], ["eq", "le"]))
        assert out.status == "infeasible"

    def test_unbounded(self):
        # -x <= -1 is x >= 1
        out = reference_solve(lp([1], [[-1]], [-1], ["le"]))
        assert out.status == "unbounded"

    def test_equality_and_ge(self):
        # max x + 2y s.t. x + y = 3, y >= 1 (as -y <= -1), x >= 0, y >= 0
        out = reference_solve(lp([1, 2], [[1, 1], [0, -1]], [3, -1], ["eq", "le"]))
        assert out.status == "optimal"
        assert out.value == 6
        assert out.solution == (Fraction(0), Fraction(3))

    def test_negative_rhs(self):
        # -x <= -2 is x >= 2
        out = reference_solve(lp([-1], [[-1]], [-2], ["le"]))
        assert out.status == "optimal"
        assert out.solution == (Fraction(2),)
        assert out.value == -2

    def test_degenerate_vertex_terminates(self):
        out = reference_solve(
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
        out = reference_solve(
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
            out = reference_solve(problem)
            status, value, _ = oracle_solve(problem)
            assert out.status == status
            if status == "optimal":
                assert out.value == value
                # the reported point must satisfy every constraint exactly
                for row, b, sense in zip(
                    problem.constraint_matrix.entries, fractions_of(problem.rhs), problem.senses
                ):
                    lhs = sum(a * x for a, x in zip(row, out.solution))
                    assert lhs <= b if sense == "le" else lhs == b
                assert all(x >= 0 for x in out.solution)

    def test_pivot_counts_stay_below_the_basis_bound(self):
        rng = Random(67)
        for _ in range(40):
            problem = random_lp(rng)
            out = reference_solve(problem)
            rows = problem.constraint_matrix.rows
            n_slack = sum(1 for s in problem.senses if s != "eq")
            width = len(problem.objective[1]) + n_slack + rows
            assert out.pivots <= 2 * comb(width, rows)

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            lp([1, 2], [[1]], [1], ["le"])
        with pytest.raises(DimensionError, match="^rhs/senses length does not match row count$"):
            lp([1], [[1]], [1, 2], ["le"])
        with pytest.raises(DimensionError, match="^rhs/senses length does not match row count$"):
            lp([1], [[1]], [1], ["le", "eq"])
        for sense in ("lt", "ge"):
            with pytest.raises(ValueError, match=f"^unknown sense '{sense}'$"):
                lp([1], [[1]], [1], [sense])


class TestStandardForm:
    """``StandardFormLP`` takes its objective and rhs as integer rows ``(scale, ints)``."""

    @staticmethod
    def problem(objective=(2, [1, 3]), rhs=(3, [1])):
        return StandardFormLP(objective, Matrix.from_rows([["1/2", "1"]]), rhs, ("le",))

    def test_rows_are_read_over_their_scales(self):
        # max x/2 + 3y/2  s.t.  x/2 + y <= 1/3: y = 1/3.
        assert solve_lp(self.problem(), [1]) == LPOutcome("optimal", (0, Fraction(1, 3)), Fraction(1, 2), pivots=1)

    @pytest.mark.parametrize("nvars", [1, 2, 3, 5])
    def test_the_column_count_is_the_objective_length(self, nvars):
        # An objective is a pair whatever its length; its ints give the column count.
        problem = lp([1] * nvars, [[1] * nvars], [1], ["eq"])
        assert lp_module._Tableau(problem).n_original == nvars
        assert solve_lp(problem, [0]) == LPOutcome("optimal", (1,) + (0,) * (nvars - 1), 1, pivots=1)

    @pytest.mark.parametrize(
        "objective, rhs, message",
        [
            ((Fraction(1, 2), Fraction(3, 2)), (3, [1]), r"objective must be an integer row \(scale, ints\)"),
            ((1, 2, 3), (3, [1]), r"objective must be an integer row \(scale, ints\)"),
            ([2, [1, 3]], (3, [1]), r"objective must be an integer row \(scale, ints\)"),
            ((1, 3), (3, [1]), r"objective must be an integer row \(scale, ints\)"),
            ((2, [1, 3]), (0, [1]), "rhs scale must be a positive int"),
            ((-2, [1, 3]), (3, [1]), "objective scale must be a positive int"),
            ((Fraction(2), [1, 3]), (3, [1]), "objective scale must be a positive int"),
            ((True, [1, 3]), (3, [1]), "objective scale must be a positive int"),
            ((2, [1, Fraction(3)]), (3, [1]), "objective entries must be ints"),
            ((2, [1, 3]), (3, [1.0]), "rhs entries must be ints"),
            ((2, [1, 3]), (3, [True]), "rhs entries must be ints"),
        ],
        ids=[
            "a Fraction tuple",
            "a triple",
            "a list",
            "a pair of ints",
            "zero scale",
            "negative scale",
            "a Fraction scale",
            "a bool scale",
            "a Fraction entry",
            "a float entry",
            "a bool entry",
        ],
    )
    def test_refusals(self, objective, rhs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.problem(objective, rhs)


@st.composite
def small_lps(draw):
    """Up to 4 variables and 4 rows of small rationals, any senses; some are unbounded.

    A row drawn as a x >= b is stated as -a x <= -b.
    """
    nvars = draw(st.integers(1, 4), label="nvars")
    nrows = draw(st.integers(1, 4), label="nrows")
    small = st.fractions(-3, 3, max_denominator=3)
    objective = tuple(draw(st.lists(small, min_size=nvars, max_size=nvars), label="objective"))
    rows = [draw(st.lists(small, min_size=nvars, max_size=nvars)) for _ in range(nrows)]
    rhs = draw(st.lists(st.fractions(-4, 6, max_denominator=2), min_size=nrows, max_size=nrows), label="rhs")
    senses = draw(st.lists(st.sampled_from(["le", "ge", "eq"]), min_size=nrows, max_size=nrows), label="senses")
    signs = [-1 if sense == "ge" else 1 for sense in senses]
    return standard_form(
        objective,
        [[sign * a for a in row] for sign, row in zip(signs, rows)],
        [sign * b for sign, b in zip(signs, rhs)],
        ["eq" if sense == "eq" else "le" for sense in senses],
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_lps())
def test_simplex_matches_the_oracle_on_generated_programs(problem):
    out = reference_solve(problem)
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

    def record(problem, *, start):
        seen.append((problem, start))
        return real(problem, start=start)

    monkeypatch.setattr(lp_module, "solve", record)
    run()
    return seen


def _seeded_persuasion():
    """Solve 40 seeded persuasion programs, each on its prior's atoms and its utility's knots."""
    rng = Random(79)
    for _ in range(40):
        n = rng.randint(2, 4)
        source = random_smpc(rng, n, n).source
        u = random_piecewise_linear(rng, source.atoms[0], source.atoms[-1])
        solve_linear_persuasion(source, u, sorted(set(source.atoms) | {x for x, _ in knots(u)}))


def _outcome_or_error(solve, problem, start):
    try:
        return solve(problem, start)
    except InternalError as err:
        return str(err)


class TestMatchesTheFractionTableau:
    """The integer tableau makes the rational tableau's pivots: equal outcomes, pivot counts included."""

    def assert_same(self, runs):
        for problem, start in runs:
            assert solve_lp(problem, start) == reference_solve(problem, start)

    def test_random_instances(self):
        # Random starts on random programs, one column per row: most are
        # singular or infeasible, and both tableaus must refuse those with the
        # same message.
        rng = Random(61)
        seen = set()
        for _ in range(80):
            problem = random_lp(rng)
            rows = problem.constraint_matrix.rows
            width = len(problem.objective[1]) + problem.senses.count("le")
            for _ in range(10):
                start = [rng.randrange(width) for _ in range(rows)]
                out = _outcome_or_error(solve_lp, problem, start)
                assert out == _outcome_or_error(reference_solve, problem, start)
                seen.add(out.status if isinstance(out, LPOutcome) else out.split(" (")[0].split(" at ")[0])
        assert seen == {"optimal", "starting pivot", "starting basis has a negative level"}

    def test_persuasion_programs(self, monkeypatch):
        runs = _recorded_lps(monkeypatch, _seeded_persuasion)
        assert len(runs) == 40
        self.assert_same(runs)

    def test_large_coprime_denominators(self):
        # The second row is 5/1000037 x1 + ... >= 1/999953, stated as <=.
        problem = lp(
            [Fraction(1, 1000081), Fraction(-1, 999907), Fraction(1, 1000099)],
            [
                [Fraction(1, 999983), Fraction(2, 1000003), Fraction(3, 1000033)],
                [Fraction(-5, 1000037), Fraction(-7, 999979), Fraction(1, 999961)],
                [1, 1, 1],
            ],
            [Fraction(1, 1000039), Fraction(-1, 999953), 1],
            ["le", "le", "le"],
        )
        # x1 on the first row and the other two rows on their slacks.
        start = [0, 4, 5]
        out = solve_lp(problem, start)
        assert out == reference_solve(problem, start)
        assert out.solution == (Fraction(999983, 1000039), 0, 0)

    def test_rank_deficient_equalities_expel_artificials(self):
        # The third row is the sum of the first two. The reference's phase 1
        # ends with two artificials basic at level zero: one leaves on a
        # negative structural entry, and the other's row is redundant and is
        # dropped. A start has no row to drop: its pivots leave the third row
        # all zero, so both tableaus refuse every start on this program.
        # (The first row's entry on x1 is -2, so x3 goes there.)
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
        assert reference_solve(problem) == LPOutcome("optimal", (Fraction(1, 3), 0, 0, 0), Fraction(1, 3), pivots=2)
        for start, message in [
            ([2, 3], "starting basis has length 2, not the row count 3"),
            ([2, 3, 0], r"starting pivot \(2, 0\) is not positive"),
        ]:
            for solver in (solve_lp, reference_solve):
                with pytest.raises(InternalError, match=f"^{message}$"):
                    solver(problem, start)

    def test_unbounded_program(self):
        # max x s.t. x - y = 1: x = 1 is a vertex, and x grows with y without bound.
        problem = lp([1, 0], [[1, -1]], [1], ["eq"])
        out = solve_lp(problem, [0])
        assert out == reference_solve(problem, [0])
        assert out == LPOutcome("unbounded", pivots=1)


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
    return weight_lp(*_grid_probe_instance(m))


class TestFullDisclosureStart:
    """The persuasion LP starts at Q = P, one atom column per row; a bad start is an ``InternalError``.

    The reference's phase 1, which ``mpcmix.lp`` does not have, reaches the same values.
    """

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
        problem, start = weight_lp(source, utility, candidates)
        assert problem.constraint_matrix.rows == len(start) == rows
        tableau = lp_module._Tableau(problem)
        tableau._start(start)
        # The weights, one slack per interior atom's row, and the rhs.
        assert all(len(row) == len(candidates) + max(rows - 2, 0) + 1 for row in tableau.rows)
        levels = {b: Fraction(row[-1], row[b]) for row, b in zip(tableau.rows, tableau.basis)}
        # Each atom column is basic at its weight, and no slack is basic.
        weights = dict(zip(source.atoms, source.weights))
        grid = [Fraction(c) for c in candidates]
        assert levels == {j: weights[c] for j, c in enumerate(grid) if c in weights}
        out = solve_lp(problem, start)
        assert out == reference_solve(problem, start)
        assert out.value == reference_solve(problem).value

    @pytest.mark.parametrize("atom", ["0", "1/2"])
    def test_a_one_atom_prior_has_the_mass_row_alone(self, atom):
        problem, start = weight_lp(point_mass(atom), _pwl(("0", "1"), ("1", "2")), [atom])
        assert problem.constraint_matrix._integer_rows == ((1, [1]),)
        assert fractions_of(problem.rhs) == (1,)
        assert problem.senses == ("eq",)
        assert start == [0]
        value = 1 + Fraction(atom)
        assert solve_lp(problem, start) == LPOutcome("optimal", (1,), value, pivots=1)

    def test_interior_rows_take_the_interior_atoms(self):
        prior = dist(["0", "1/4", "1/2", "1"], ["1/4", "1/4", "1/4", "1/4"])
        candidates = ["0", "1/8", "1/4", "3/8", "1/2", "3/4", "1"]
        problem, start = weight_lp(prior, _pwl(("0", "0"), ("1", "1")), candidates)
        # Atoms at candidates 0, 2, 4 and 6. The rows of 1/4, 1/2 and 1
        # pivot on the atom below each, and the mass row on the top atom.
        assert start == [0, 2, 4, 6]
        assert problem.constraint_matrix.entries[:3] == (
            tuple(Fraction(x) for x in ("1/4", "1/8", "0", "0", "0", "0", "0")),
            tuple(Fraction(x) for x in ("1/2", "3/8", "1/4", "1/8", "0", "0", "0")),
            tuple(Fraction(x) for x in ("1", "7/8", "3/4", "5/8", "1/2", "1/4", "0")),
        )
        assert fractions_of(problem.rhs) == (Fraction(1, 16), Fraction(3, 16), Fraction(9, 16), 1)
        assert problem.senses == ("le", "le", "eq", "eq")

    def test_zero_pivot_entry_is_an_internal_error(self):
        # The top atom's row is 1 q_1 + 0 q_2 = 1/4.
        problem, _ = weight_lp(dist(["0", "1"], ["1/4", "3/4"]), _pwl(("0", "1"), ("1", "2")), ["0", "1"])
        message = r"^starting pivot \(0, 1\) is not positive$"
        with pytest.raises(InternalError, match=message):
            solve_lp(problem, [1, 0])
        with pytest.raises(InternalError, match=message):
            reference_solve(problem, [1, 0])

    @pytest.mark.parametrize(
        "start",
        [
            # All mass on 0: the top atom's row puts q_1 at 1/4, and leaves
            # q_1 at 0 in the mass row.
            [0, 0],
            # The top atom's row puts q_2 at 1/2 - 2 q_1, and leaves q_1 at
            # -1 in the mass row.
            [1, 0],
        ],
        ids=["repeated", "negative entry"],
    )
    def test_a_nonpositive_pivot_is_an_internal_error(self, start):
        problem, _ = weight_lp(dist(["0", "1"], ["1/4", "3/4"]), _pwl(("0", "1"), ("1", "2")), ["0", "1/2", "1"])
        for solver in (solve_lp, reference_solve):
            with pytest.raises(InternalError, match=r"^starting pivot \(1, 0\) is not positive$"):
                solver(problem, start)

    @pytest.mark.parametrize(
        "problem, start, message",
        [
            # x1 = 1 leaves the slack of x1 <= 1/2 at -1/2.
            (
                lp([1, 0], [[1, 1], [1, 0]], [1, Fraction(1, 2)], ["eq", "le"]),
                [0, 2],
                "has a negative level at row 1",
            ),
            # Weights on 0 and 1/2 with mean 3/4: q_1 = -1/2.
            (
                weight_lp(dist(["0", "1"], ["1/4", "3/4"]), _pwl(("0", "0"), ("1", "1")), ["0", "1/2", "1"])[0],
                [0, 1],
                "has a negative level at row 0",
            ),
        ],
        ids=["negative slack", "negative weight"],
    )
    def test_infeasible_start_is_an_internal_error(self, problem, start, message):
        message = f"^starting basis {message}$"
        with pytest.raises(InternalError, match=message):
            solve_lp(problem, start)
        with pytest.raises(InternalError, match=message):
            reference_solve(problem, start)

    @pytest.mark.parametrize(
        "problem, start",
        [
            (lp([1, 0], [[1, 1], [1, 0]], [1, Fraction(1, 2)], ["eq", "le"]), []),
            # No slack starts basic: x1 = 1 would leave it at 1/2, but the start must name it.
            (lp([1, 0], [[1, 1], [1, 0]], [1, Fraction(3, 2)], ["eq", "le"]), [0]),
        ],
        ids=["no pivot", "slack row"],
    )
    def test_a_row_without_a_start_pivot_is_an_internal_error(self, problem, start):
        message = f"^starting basis has length {len(start)}, not the row count 2$"
        with pytest.raises(InternalError, match=message):
            solve_lp(problem, start)
        with pytest.raises(InternalError, match=message):
            reference_solve(problem, start)

    def test_persuasion_runs_one_simplex_phase(self, monkeypatch):
        runs = []
        real = lp_module._Tableau._run

        def counted(self):
            runs.append(len(self.costs))
            return real(self)

        monkeypatch.setattr(lp_module._Tableau, "_run", counted)
        utility = _pwl(("0", "1"), ("1/4", "-1"), ("3/4", "2"), ("1", "0"))
        candidates = ["0", "1/4", "1/3", "1/2", "3/4", "1"]
        solve_linear_persuasion(PRIOR, utility, candidates)
        # One run, over a cost row of the 6 weights and the slack of the one interior atom's row.
        assert runs == [7]

    def test_start_and_phase_1_reach_equal_values(self):
        rng = Random(83)
        for _ in range(40):
            n = rng.randint(2, 5)
            source = random_smpc(rng, n, n).source
            lo, hi = source.atoms[0], source.atoms[-1]
            u = random_piecewise_linear(rng, lo, hi, interior=rng.randint(1, 4))
            extra = {lo + (hi - lo) * Fraction(rng.randint(1, 9), 10) for _ in range(rng.randint(0, 4))}
            candidates = sorted(set(source.atoms) | {x for x, _ in knots(u)} | extra)
            problem, start = weight_lp(source, u, candidates)
            started, phase_1 = solve_lp(problem, start), reference_solve(problem)
            assert started.status == phase_1.status == "optimal"
            assert started.value == phase_1.value
            assert sum(1 for q in started.solution if q) <= n

    def test_grid_probe_pivots(self):
        problem, start = _grid_probe(41)
        started, phase_1 = solve_lp(problem, start), reference_solve(problem)
        assert phase_1.pivots == 60
        assert started.pivots <= 25
        # With an order row at every interior candidate, phase 1 took 87 pivots.
        full_grid = reference_solve(full_grid_lp(*_grid_probe_instance(41)))
        assert full_grid.pivots == 87
        assert started.value == phase_1.value == full_grid.value == Fraction(287, 60)

    def test_grid_probe_rows_do_not_grow_with_the_grid(self):
        problem, start = _grid_probe(321)
        assert problem.constraint_matrix.rows == 5
        started = solve_lp(problem, start)
        assert started.status == "optimal"
        assert started.pivots <= 40


def _fraction_reduced_costs(problem, basis):
    """c - c_B B^-1 A over the columns of A and one slack per ``le`` row, in ``Fraction``s.

    y = c_B B^-1 comes from Gauss-Jordan elimination on B^T y = c_B.
    """
    senses = problem.senses
    slacks = [tuple(Fraction(i == r) for i in range(len(senses))) for r, sense in enumerate(senses) if sense == "le"]
    columns = [*zip(*problem.constraint_matrix.entries), *slacks]
    c = [*fractions_of(problem.objective), *[Fraction(0)] * len(slacks)]
    system = [[*columns[b], c[b]] for b in basis]
    size = len(system)
    for i in range(size):
        pivot = next(r for r in range(i, size) if system[r][i])
        system[i], system[pivot] = system[pivot], system[i]
        system[i] = [x / system[i][i] for x in system[i]]
        for r in range(size):
            if r != i and system[r][i]:
                f = system[r][i]
                system[r] = [x - f * z for x, z in zip(system[r], system[i])]
    y = [row[-1] for row in system]
    return [cj - sum(yi * aij for yi, aij in zip(y, column)) for cj, column in zip(c, columns)]


def assert_reduced_costs(tableau, problem):
    """``tableau.costs`` is c - c_B B^-1 A of ``tableau.basis`` times a positive factor."""
    reduced = _fraction_reduced_costs(problem, tableau.basis)
    factor = next((Fraction(v) / r for v, r in zip(tableau.costs, reduced) if r), 1)
    assert factor > 0
    assert [factor * r for r in reduced] == tableau.costs


class TestReducedCostRow:
    """``_Tableau.costs`` is c - c_B B^-1 A of the final basis, up to a positive factor.

    At an optimum it is 0 on every basic column and at most 0 on every
    column: the sign test that stops the simplex, and the row a dual reads.
    """

    @staticmethod
    def assert_optimal_costs(problem, start):
        tableau = lp_module._Tableau(problem)
        assert tableau.solve(start).status == "optimal"
        costs = tableau.costs
        assert len(costs) == len(tableau.rows[0]) - 1
        assert all(costs[b] == 0 for b in tableau.basis)
        assert all(v <= 0 for v in costs)
        assert_reduced_costs(tableau, problem)

    def test_seeded_persuasion_programs(self, monkeypatch):
        runs = _recorded_lps(monkeypatch, _seeded_persuasion)
        assert len(runs) == 40
        for problem, start in runs:
            self.assert_optimal_costs(problem, start)

    def test_grid_probe(self):
        self.assert_optimal_costs(*_grid_probe(41))

    def test_random_programs(self):
        # The random starts that are feasible, and whose program is bounded.
        rng = Random(61)
        optimal = 0
        for _ in range(80):
            problem = random_lp(rng)
            width = len(problem.objective[1]) + problem.senses.count("le")
            for _ in range(10):
                start = [rng.randrange(width) for _ in range(problem.constraint_matrix.rows)]
                out = _outcome_or_error(solve_lp, problem, start)
                if isinstance(out, LPOutcome) and out.status == "optimal":
                    self.assert_optimal_costs(problem, start)
                    optimal += 1
        assert optimal >= 20

    def test_the_start_prices_out_its_columns(self):
        # Before the simplex runs, the start's pivots have already made the
        # cost row the reduced costs of the starting basis.
        problem, start = _grid_probe(41)
        tableau = lp_module._Tableau(problem)
        tableau._start(start)
        assert any(tableau.costs)
        assert_reduced_costs(tableau, problem)
