from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmix import (
    DiscreteDistribution,
    PiecewiseLinearFn,
    SmpcTriple,
    check_no_profitable_deviation,
    decompose_full,
    is_mpc,
    solve_linear_persuasion,
)
from mpcmix import distributions, lp
from mpcmix.errors import CandidateError, CdfError, DomainError, InternalError
from mpcmix.linalg import Matrix

from cases import (
    DUEL_CDF,
    DUEL_PRIOR,
    DUEL_VALUE,
    PRIOR,
    dist,
    identity,
    mean,
    point_mass,
    worked_triple,
)
from lp_fraction_reference import fractions_of, reference_solve
from lp_oracle import garbling_persuasion_value
import persuasion_lp_reference as reference
from random_instances import random_piecewise_linear, random_smpc


def pwl(pairs):
    return PiecewiseLinearFn.from_pairs(pairs)


class TestPiecewiseLinearFn:
    def test_interpolation(self):
        f = pwl([("0", "0"), ("1/2", "1/3"), ("3/4", "1")])
        assert reference.evaluate(f, Fraction(0)) == 0
        assert reference.evaluate(f, Fraction(1, 4)) == Fraction(1, 6)
        assert reference.evaluate(f, Fraction(1, 2)) == Fraction(1, 3)
        assert reference.evaluate(f, Fraction(5, 8)) == Fraction(2, 3)
        assert reference.evaluate(f, Fraction(3, 4)) == 1
        # A point mass's expectation interpolates the same way.
        for x in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(5, 8), Fraction(3, 4)):
            assert f.expectation(point_mass(x)) == reference.evaluate(f, x)

    def test_domain_is_enforced(self):
        f = pwl([("0", "0"), ("1", "1")])
        for x in (Fraction(-1, 10), Fraction(11, 10)):
            with pytest.raises(DomainError):
                reference.evaluate(f, x)
            with pytest.raises(DomainError):
                f.expectation(point_mass(x))

    def test_knot_validation(self):
        with pytest.raises(DomainError):
            pwl([("0", "0")])
        with pytest.raises(DomainError):
            pwl([("0", "0"), ("0", "1")])

    @pytest.mark.parametrize(
        "knots, k",
        [(((0, 0, 5), (1, 1)), 0), (((0, 0), (1,)), 1), (((0, 0), [1, 1]), 1), (((0, 0), 1), 1)],
        ids=["three values", "one value", "a list", "a number"],
    )
    def test_a_knot_must_be_an_xy_pair(self, knots, k):
        with pytest.raises(ValueError) as err:
            PiecewiseLinearFn(knots)
        assert type(err.value) is ValueError
        assert str(err.value) == f"knot {k} of 'knots' must be an (x, y) pair"

    @pytest.mark.parametrize(
        "pairs, k",
        [
            (["01", "12"], 0),
            ([("0", "0"), "12"], 1),
            ([("0", "0"), ("1", "1"), "22"], 2),
            ([b"01", b"23"], 0),
            ([("0", "0"), bytearray(b"12")], 1),
        ],
        ids=["first", "second", "third", "bytes", "bytearray"],
    )
    def test_a_knot_of_text_is_not_a_pair(self, pairs, k):
        # Read as a pair, "01" would be the knot (0, 1), and b"01" the knot (48, 49).
        with pytest.raises(ValueError) as err:
            PiecewiseLinearFn.from_pairs(pairs)
        assert type(err.value) is ValueError
        assert str(err.value) == f"knot {k} of 'knots' must be an (x, y) pair"

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # A knot that is not a pair is refused before any value is read.
            ([("x", "0"), ("1",)], "knot 1 of 'knots' must be an (x, y) pair"),
            ([("0", "0"), ("y", "1", "2"), ("x", "1")], "knot 1 of 'knots' must be an (x, y) pair"),
            # The x values are read before the y values, so a bad x wins over
            # a bad y of an earlier knot.
            ([("0", "y"), ("x", "1")], "not a rational: 'x'"),
            ([("0", "1/0"), ("1", "0"), ("2", "2"), ("1e9999", "1")], "exponent beyond 4300 in rational '1e9999'"),
        ],
        ids=["not a pair, then a bad value", "a bad value, then not a pair", "bad y, then bad x", "zero y, then huge x"],
    )
    def test_knots_with_two_faults_report_the_first_in_reading_order(self, pairs, message):
        with pytest.raises(ValueError) as err:
            PiecewiseLinearFn.from_pairs(pairs)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_is_cdf(self):
        assert DUEL_CDF.is_cdf()
        assert not pwl([("0", "0"), ("1", "2")]).is_cdf()
        assert not pwl([("0", "0"), ("1/2", "1"), ("1", "1/2")]).is_cdf()

    def test_expectation(self):
        f = pwl([("0", "0"), ("1", "1")])
        assert f.expectation(dist(["0", "1"], ["1/4", "3/4"])) == Fraction(3, 4)

    def test_json_round_trip(self):
        assert PiecewiseLinearFn.from_json(reference.knots_json(DUEL_CDF)) == DUEL_CDF

    def test_ints_fractions_and_text_build_one_function(self):
        built = PiecewiseLinearFn(((-1, 1), (Fraction(1, 2), -3), (2, Fraction(5, 3))))
        assert isinstance(built, Matrix)
        assert reference.knots(built) == ((-1, 1), (Fraction(1, 2), -3), (2, Fraction(5, 3)))
        for u in (
            PiecewiseLinearFn(((Fraction(-1), Fraction(1)), (Fraction(2, 4), Fraction(-3)), (Fraction(2), Fraction(10, 6)))),
            pwl([("-1", "1"), ("2/4", "-3"), ("2", "10/6")]),
            pwl([("-1.0", "1"), ("0.5", "-3"), ("2", "5/3")]),
            PiecewiseLinearFn.from_json(reference.knots_json(built)),
        ):
            assert u == built
            assert hash(u) == hash(built)

    def test_never_equal_to_a_distribution_with_the_same_rows(self):
        u = PiecewiseLinearFn(((0, Fraction(1, 4)), (1, Fraction(3, 4))))
        d = DiscreteDistribution((0, 1), (Fraction(1, 4), Fraction(3, 4)))
        assert u._integer_rows == d._integer_rows
        assert u != d and d != u


def _random_rational(rng, lo, hi, big):
    """A rational in [lo, hi], with a denominator of up to about 2^80 when ``big``."""
    den = rng.randint(1, 2**80) if big else rng.randint(1, 6)
    return lo + (hi - lo) * Fraction(rng.randint(0, den), den)


def _expectation_by_calls(u, dist):
    """sum w u(a) through the reference's interpolation, or the text of the ``DomainError`` that it raises."""
    try:
        return sum(w * reference.evaluate(u, a) for a, w in zip(dist.atoms, dist.weights))
    except DomainError as err:
        return str(err)


def _expectation_or_error(u, dist):
    try:
        return u.expectation(dist)
    except DomainError as err:
        return str(err)


class TestExpectationSweep:
    """``expectation``'s sweep against the sum of interpolated values, on seeded pairs."""

    def test_seeded_pairs(self):
        rng = Random(101)
        seen = {"on a knot": 0, "at lo": 0, "at hi": 0, "negative": 0, "big": 0, "below": 0, "above": 0}
        for _ in range(300):
            big = rng.random() < 0.3
            lo = _random_rational(rng, Fraction(-5), Fraction(1), big)
            hi = lo + 1 + _random_rational(rng, Fraction(0), Fraction(4), big)
            xs = sorted({lo, hi, *(_random_rational(rng, lo, hi, big) for _ in range(rng.randint(0, 4)))})
            u = PiecewiseLinearFn(tuple((x, _random_rational(rng, Fraction(-3), Fraction(3), big)) for x in xs))
            pool = [*xs, *(_random_rational(rng, lo, hi, big) for _ in range(4))]
            if rng.random() < 0.2:
                pool.append(lo - _random_rational(rng, Fraction(1, 2**70), Fraction(1), big))
            if rng.random() < 0.2:
                pool.append(hi + _random_rational(rng, Fraction(1, 2**70), Fraction(1), big))
            atoms = sorted(set(rng.sample(pool, rng.randint(1, min(6, len(pool))))))
            raw = [rng.randint(1, 2**40 if big else 9) for _ in atoms]
            dist = DiscreteDistribution(tuple(atoms), tuple(Fraction(r, sum(raw)) for r in raw))
            expected = _expectation_by_calls(u, dist)
            assert _expectation_or_error(u, dist) == expected
            seen["on a knot"] += any(a in xs[1:-1] for a in atoms)
            seen["at lo"] += lo in atoms
            seen["at hi"] += hi in atoms
            seen["negative"] += atoms[0] < 0
            seen["big"] += any(a.denominator > 2**60 for a in atoms)
            seen["below"] += atoms[0] < lo
            seen["above"] += atoms[-1] > hi
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize(
        "atoms, message",
        [
            (["-1/2", "1/2", "3"], "-1/2 outside domain [0, 1]"),
            (["1/2", "5/4", "3"], "5/4 outside domain [0, 1]"),
            (["-1", "2"], "-1 outside domain [0, 1]"),
        ],
        ids=["below", "above, the lowest one", "both"],
    )
    def test_an_atom_outside_the_domain(self, atoms, message):
        u = pwl([("0", "0"), ("1", "1")])
        d = dist(atoms, [f"1/{len(atoms)}"] * len(atoms))
        with pytest.raises(DomainError) as err:
            u.expectation(d)
        assert str(err.value) == message == _expectation_by_calls(u, d)


@pytest.mark.parametrize(
    "lo, hi", [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0))], ids=["one point", "reversed"]
)
def test_random_piecewise_linear_needs_room_for_interior_knots(lo, hi):
    rng = Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match=rf"^interior knots need lo < hi, got \[{lo}, {hi}\]$"):
        random_piecewise_linear(rng, lo, hi, interior=1)
    assert rng.getstate() == state
    xs = [x for x, _ in reference.knots(random_piecewise_linear(rng, Fraction(0), Fraction(1), interior=1))]
    assert (xs[0], xs[-1]) == (0, 1)


class TestSolveLinearPersuasion:
    def test_affine_utility_pins_the_value(self):
        u = pwl([("0", "1/5"), ("1", "9/10")])
        for candidates in (PRIOR.atoms, tuple(sorted(set(PRIOR.atoms) | {Fraction(11, 20)}))):
            solution = solve_linear_persuasion(PRIOR, u, candidates)
            assert solution.value == reference.evaluate(u, mean(PRIOR))
            assert solution.candidates_exact

    def test_convex_utility_wants_full_disclosure(self):
        u = pwl([("0", "1"), ("1/2", "0"), ("1", "1")])
        solution = solve_linear_persuasion(PRIOR, u, PRIOR.atoms)
        assert solution.value == Fraction(7, 10)
        assert solution.optimum.target == PRIOR

    def test_concave_utility_wants_full_pooling(self):
        mu = mean(PRIOR)
        u = pwl([("0", "0"), ("11/20", "11/20"), ("1", "0")])
        candidates = tuple(sorted(set(PRIOR.atoms) | {mu}))
        solution = solve_linear_persuasion(PRIOR, u, candidates)
        assert solution.value == mu
        assert solution.optimum.target == point_mass(mu)

    def test_reduced_solution_is_small_and_no_worse(self):
        rng = Random(13)
        for _ in range(25):
            n = rng.randint(2, 4)
            triple = random_smpc(rng, n, rng.randint(n, 8))
            source = triple.source
            u = random_piecewise_linear(rng, source.atoms[0], source.atoms[-1])
            candidates = sorted(set(source.atoms) | {x for x, _ in reference.knots(u)})
            solution = solve_linear_persuasion(source, u, candidates)
            assert solution.candidates_exact
            assert len(solution.optimum.target.atoms) <= n
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
        # In the order the solver checks them; each case fails only the checks from its own on.
        u = pwl([("0", "0"), ("1", "1")])
        for candidates, message in [
            ([], "candidate list is empty"),
            ([Fraction(1, 2), Fraction(1, 2)], "candidates must be strictly increasing"),
            (["1/2", "2/4"], "candidates must be strictly increasing"),
            (["1", "0", "-1"], "candidates must be strictly increasing"),
            ([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1)], "candidates must lie within the prior's atom range"),
            (["0", "1/2", "2"], "candidates must lie within the prior's atom range"),
            ([Fraction(0), Fraction(1)], "candidates must include every atom of the prior"),
            (["0", "1/2"], "candidates must include every atom of the prior"),
            (["0", "1/3", "2/3", "1"], "candidates must include every atom of the prior"),
        ]:
            with pytest.raises(CandidateError, match=f"^{message}$"):
                solve_linear_persuasion(PRIOR, u, candidates)
        with pytest.raises(DomainError, match="^utility domain must cover the prior's atom range$"):
            solve_linear_persuasion(
                PRIOR, pwl([("0", "0"), ("1/2", "1")]), PRIOR.atoms
            )
        # Ends a third inside a prior on [0, 1], one unit apart on the integer rows.
        for short in (pwl([("1/3", "0"), ("1", "1")]), pwl([("0", "0"), ("2/3", "1")])):
            with pytest.raises(DomainError, match="^utility domain must cover the prior's atom range$"):
                solve_linear_persuasion(dist(["0", "1"], ["1/2", "1/2"]), short, ["0", "1"])

    def test_candidates_of_text_are_refused(self):
        # Read one character at a time, "01" would be the grid {0, 1}.
        prior = dist(["0", "1"], ["1/2", "1/2"])
        with pytest.raises(ValueError, match="^not a row of rationals: '01'$"):
            solve_linear_persuasion(prior, pwl([("0", "0"), ("1", "1")]), "01")

    @pytest.mark.parametrize("candidates", [b"\x00\x01", bytearray(b"\x00\x01")], ids=["bytes", "bytearray"])
    def test_candidates_of_bytes_are_refused(self, candidates):
        # Read one byte at a time, b"\x00\x01" would be the grid {0, 1}.
        prior = dist(["0", "1"], ["1/2", "1/2"])
        with pytest.raises(ValueError, match=r"^not a row of rationals: (bytearray\()?b'\\x00\\x01'\)?$"):
            solve_linear_persuasion(prior, pwl([("0", "0"), ("1", "1")]), candidates)

    @pytest.mark.parametrize("constant", ["0", "3/2"])
    def test_a_constant_utility_keeps_the_prior(self, monkeypatch, constant):
        # Every weight costs the same, so the start is optimal: no pivot after
        # the n starting ones. For u = 0 the objective row is all zeros.
        outcomes = []
        real = lp.solve

        def record(problem, *, start):
            outcomes.append(real(problem, start=start))
            return outcomes[-1]

        monkeypatch.setattr(lp, "solve", record)
        u = pwl([("-1", constant), ("1/3", constant), ("2", constant)])
        for source in (PRIOR, point_mass("1/2"), dist(["-1", "0", "1/3", "2"], ["1/8", "1/4", "1/8", "1/2"])):
            lo, hi = source.atoms[0], source.atoms[-1]
            candidates = sorted({*source.atoms, mean(source), *(x for x in (Fraction(1, 3),) if lo <= x <= hi)})
            solution = solve_linear_persuasion(source, u, candidates)
            assert solution.value == Fraction(constant)
            assert solution.optimum.target == source
            assert outcomes.pop().pivots == len(source.atoms)

    def test_the_lp_holds_only_ints(self):
        # Its objective and rhs go to lp.solve as integer rows, with no Fraction.
        rng = Random(103)
        for _ in range(20):
            n = rng.randint(1, 5)
            source = random_smpc(rng, n, n).source
            u = random_piecewise_linear(rng, source.atoms[0] - 1, source.atoms[-1] + 1, rng.randint(1, 3))
            problem, _ = reference.weight_lp(source, u, sorted({*source.atoms, *(x for x, _ in reference.knots(u)[1:-1])}))
            for scale, ints in (problem.objective, problem.rhs):
                assert type(scale) is int and scale > 0
                assert {type(x) for x in ints} == {int}

    def test_inexact_grid_is_flagged(self):
        u = pwl([("0", "1"), ("1/3", "-1"), ("1", "2")])
        solution = solve_linear_persuasion(PRIOR, u, PRIOR.atoms)
        assert not solution.candidates_exact

    def test_the_solve_reads_only_integer_rows(self):
        # Neither the prior nor the utility read from JSON builds its Fraction grid.
        source = DiscreteDistribution.from_json({"atoms": ["-1/2", "1/3", "1"], "weights": ["1/4", "1/4", "1/2"]})
        u = PiecewiseLinearFn.from_json({"knots": [["-1", "2"], ["0", "-1"], ["1/2", "3/2"], ["3/2", "0"]]})
        solution = solve_linear_persuasion(source, u, ["-1/2", "0", "1/3", "1/2", "1"])
        assert "entries" not in vars(source)
        assert "entries" not in vars(u)
        assert solution.candidates_exact
        assert solution.value == _expectation_by_calls(u, solution.optimum.target)

    def test_the_check_reads_only_integer_rows(self):
        # Neither the prior nor the cdf read from JSON builds its Fraction grid,
        # and the candidates, out of order, are merged with the knots as integers.
        source = DiscreteDistribution.from_json({"atoms": ["-1/2", "1/3", "1"], "weights": ["1/4", "1/4", "1/2"]})
        cdf = PiecewiseLinearFn.from_json({"knots": [["-1", "0"], ["0", "1/4"], ["1/2", "3/4"], ["3/2", "1"]]})
        check = check_no_profitable_deviation(source, cdf, "1/2", ["1", "1/3", "-1/2"])
        assert "entries" not in vars(source)
        assert "entries" not in vars(cdf)
        assert check.solution.candidates_exact
        assert check.max_payoff == _expectation_by_calls(cdf, check.solution.optimum.target)

    def test_an_optimum_without_a_witness_is_an_internal_error(self, monkeypatch):
        # An "optimum" of all mass at a_1, below the prior's mean, with the
        # value u(a_1): a vertex whose value checks, but no contraction. The
        # solve decides no order, so the left-curtain builder refuses it.
        u = pwl([("0", "1"), ("1/2", "0"), ("1", "1")])
        outcome = lp.LPOutcome("optimal", (Fraction(1), Fraction(0), Fraction(0)), Fraction(1))
        monkeypatch.setattr(lp, "solve", lambda problem, *, start: outcome)
        message = "^no shadow window for the target atom at 0: every window's mean is above it$"
        with pytest.raises(InternalError, match=message):
            solve_linear_persuasion(PRIOR, u, PRIOR.atoms)

    def test_a_solve_decides_no_order_and_checks_one_triple(self, monkeypatch):
        # The LP's rows impose the order, so neither command's solve calls
        # mpc_violation, and its one checked SmpcTriple is the optimum's.
        calls = []
        real_violation, real_check = distributions.mpc_violation, SmpcTriple.__post_init__

        def violation(source, candidate):
            calls.append("mpc_violation")
            return real_violation(source, candidate)

        def check(triple):
            calls.append("SmpcTriple")
            real_check(triple)

        monkeypatch.setattr(distributions, "mpc_violation", violation)
        monkeypatch.setattr(SmpcTriple, "__post_init__", check)
        u = pwl([("0", "1"), ("1/2", "0"), ("1", "1")])
        solve_linear_persuasion(PRIOR, u, PRIOR.atoms)
        assert calls == ["SmpcTriple"]
        calls.clear()
        check_no_profitable_deviation(DUEL_PRIOR, DUEL_CDF, DUEL_VALUE, DUEL_PRIOR.atoms)
        assert calls == ["SmpcTriple"]


def _assert_optimal(solution, source, utility, candidates):
    """The weight LP's optimum against the garbling LP's value, on the same grid.

    The optimum is an LP vertex, so it has at most as many atoms as the prior.
    """
    assert solution.value == garbling_persuasion_value(source, utility, candidates)
    target = solution.optimum.target
    assert solution.optimum.source == source
    assert set(target.atoms) <= set(candidates)
    assert is_mpc(source, target)
    assert utility.expectation(target) == solution.value
    assert len(target.atoms) <= len(source.atoms)


def _merged_grid(source, cdf, candidates):
    """The grid that ``check_no_profitable_deviation`` solves on."""
    a1, an = source.atoms[0], source.atoms[-1]
    return sorted(set(candidates) | {x for x, _ in reference.knots(cdf) if a1 <= x <= an})


def _check_on_merged_grid(source, cdf, candidates):
    """``check_no_profitable_deviation`` on ``candidates`` against the solve on ``_merged_grid``.

    Both give one solution, or one ``CandidateError``. Returns whether they solved.
    """
    grid = _merged_grid(source, cdf, candidates)
    try:
        expected = solve_linear_persuasion(source, cdf, grid)
    except CandidateError as err:
        with pytest.raises(CandidateError) as raised:
            check_no_profitable_deviation(source, cdf, Fraction(1, 2), candidates)
        assert str(raised.value) == str(err)
        return False
    assert check_no_profitable_deviation(source, cdf, Fraction(1, 2), candidates).solution == expected
    return True


def _random_cdf(rng, lo, hi):
    knots = reference.knots(random_piecewise_linear(rng, lo, hi, rng.randint(1, 3)))
    ys = sorted(Fraction(rng.randint(0, 6), 6) for _ in knots[1:-1])
    return PiecewiseLinearFn(tuple(zip((x for x, _ in knots), [Fraction(0), *ys, Fraction(1)])))


@st.composite
def persuasion_problems(draw):
    """A prior of 1 to 5 atoms, a utility and an opponent cdf over its range, and a grid.

    The grid holds the prior's atoms, some of the utility's interior knots and
    other points of the range, so it is often coarse (``candidates_exact``
    false).
    """
    n = draw(st.integers(1, 5), label="n")
    atoms = sorted(draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n, unique=True), label="atoms"))
    raw = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n), label="weights")
    source = DiscreteDistribution(tuple(atoms), tuple(Fraction(w, sum(raw)) for w in raw))
    lo, hi = atoms[0], atoms[-1]
    inside = st.fractions(lo, hi, max_denominator=6)

    def knots(label, values):
        k = draw(st.integers(0, 3), label=f"{label} interior knots")
        xs = sorted({lo - 1, hi + 1, *draw(st.lists(inside, min_size=k, max_size=k), label=f"{label} knots")})
        return xs, draw(st.lists(values, min_size=len(xs), max_size=len(xs)), label=f"{label} values")

    xs, ys = knots("utility", st.fractions(-4, 4, max_denominator=3))
    utility = PiecewiseLinearFn(tuple(zip(xs, ys)))
    cdf_xs, cdf_ys = knots("cdf", st.fractions(0, 1, max_denominator=4))
    cdf = PiecewiseLinearFn(tuple(zip(cdf_xs, [Fraction(0), *sorted(cdf_ys[1:-1]), Fraction(1)])))
    interior = [x for x in xs if lo < x < hi]
    k = draw(st.integers(0, 4), label="extra candidates")
    extra = draw(st.lists(st.sampled_from(interior) | inside if interior else inside, min_size=k, max_size=k), label="candidates")
    return source, utility, cdf, sorted(set(atoms) | set(extra))


class TestWeightProgramMatchesTheGarblingProgram:
    """The LP over target weights and the LP over garbling entries have one value."""

    def test_seeded_instances(self):
        rng = Random(83)
        # The cdfs with a knot at a_1 or a_n come from their own stream, so
        # that rng draws the instances that it always drew.
        edges = Random(84)
        coarse = 0
        solved = {"reversed": 0, "repeated": 0, "empty": 0, "knot at a_1": 0, "knot at a_n": 0}
        for _ in range(30):
            n = rng.randint(1, 4)
            source = random_smpc(rng, n, n).source
            lo, hi = source.atoms[0], source.atoms[-1]
            u = random_piecewise_linear(rng, lo - 1, hi + 1, rng.randint(1, 3))
            knots = {x for x, _ in reference.knots(u) if lo < x < hi}
            for candidates in (sorted(set(source.atoms) | knots), sorted(source.atoms)):
                solution = solve_linear_persuasion(source, u, candidates)
                _assert_optimal(solution, source, u, candidates)
                coarse += not solution.candidates_exact
            cdf = _random_cdf(rng, lo - 1, hi + 1)
            check = check_no_profitable_deviation(source, cdf, Fraction(1, 2), source.atoms)
            _assert_optimal(check.solution, source, cdf, _merged_grid(source, cdf, source.atoms))
            atoms = list(source.atoms)
            at_lo, at_hi = _random_cdf(edges, lo, hi + 1), _random_cdf(edges, lo - 1, hi)
            for name, opponent, candidates in (
                ("reversed", cdf, atoms[::-1]),
                ("repeated", cdf, [*atoms, atoms[-1], atoms[0]]),
                ("empty", cdf, []),
                ("empty", at_lo, []),
                ("knot at a_1", at_lo, atoms[1:]),
                ("knot at a_n", at_hi, atoms[:-1][::-1]),
            ):
                solved[name] += _check_on_merged_grid(source, opponent, candidates)
        assert coarse > 0
        assert min(solved.values()) > 0, solved

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(persuasion_problems())
    def test_generated_instances(self, problem):
        source, utility, cdf, candidates = problem
        _assert_optimal(solve_linear_persuasion(source, utility, candidates), source, utility, candidates)
        check = check_no_profitable_deviation(source, cdf, Fraction(1, 2), candidates)
        _assert_optimal(check.solution, source, cdf, _merged_grid(source, cdf, candidates))
        # The check takes its candidates as a set: out of order, repeated, none
        # at all, or without a prior atom that a knot of the cdf supplies.
        knot_xs = {x for x, _ in reference.knots(cdf)}
        for variant in (candidates[::-1], [*candidates, candidates[0]], [], [c for c in candidates if c not in knot_xs]):
            _check_on_merged_grid(source, cdf, variant)


def _assert_same_lp(source, utility, candidates):
    """The integer-sweep build and the ``Fraction`` reference make one LP, of n rows, and one solve.

    ``Matrix._trusted`` checks nothing, so equal integer rows are what keep
    the sweep's rows canonical.
    """
    built, start = reference.weight_lp(source, utility, candidates)
    expected = reference.persuasion_lp(source, utility, tuple(Fraction(c) for c in candidates))
    assert built.constraint_matrix._integer_rows == expected.constraint_matrix._integer_rows
    assert fractions_of(built.rhs) == fractions_of(expected.rhs)
    assert fractions_of(built.objective) == fractions_of(expected.objective)
    assert built.senses == expected.senses
    assert built.constraint_matrix.rows == len(start) == len(source.atoms)
    assert lp.solve(built, start=start) == lp.solve(expected, start=start)


class TestIntegerSweepBuild:
    """``_persuasion_lp`` against the per-entry ``Fraction`` build of the same LP."""

    @pytest.mark.parametrize(
        "source, utility, candidates",
        [
            (point_mass("1/3"), pwl([("0", "1"), ("1", "-2")]), ["1/3"]),
            (dist(["0", "1"], ["1/4", "3/4"]), pwl([("0", "1"), ("1", "-2")]), ["0", "1"]),
            (
                PRIOR,
                pwl([("0", "1"), ("1/4", "-1"), ("3/4", "2"), ("1", "0")]),
                ["0", "1/4", "1/3", "1/2", "3/4", "1"],
            ),
            (
                dist(["-2", "-1/3", "1/2"], ["1/5", "1/2", "3/10"]),
                pwl([("-2", "3"), ("-1", "-1/2"), ("1/2", "1")]),
                ["-2", "-1", "-2/3", "-1/3", "0", "1/2"],
            ),
            (
                dist(["-3/7", "2/11", "12/13"], ["1/3", "1/6", "1/2"]),
                pwl([("-1", "0"), ("1/11", "2/3"), ("5/13", "-1/7"), ("1", "1")]),
                ["-3/7", "1/11", "2/11", "5/13", "12/13"],
            ),
            (
                PRIOR,
                pwl([("-5", "7"), ("-1/2", "0"), ("2/3", "5/2"), ("5", "-3")]),
                ["0", "1/8", "1/2", "2/3", "1"],
            ),
        ],
        ids=[
            "one atom",
            "no interior row",
            "on and between knots",
            "negative atoms",
            "coprime denominators",  # the grid's denominator 1001 is no candidate's
            "wide utility domain",
        ],
    )
    def test_cases(self, source, utility, candidates):
        _assert_same_lp(source, utility, candidates)

    def test_seeded_instances(self):
        rng = Random(89)
        for _ in range(40):
            n = rng.randint(1, 5)
            source = random_smpc(rng, n, n).source
            lo, hi = source.atoms[0], source.atoms[-1]
            u = random_piecewise_linear(rng, lo - rng.randint(0, 2), hi + rng.randint(1, 2), rng.randint(1, 4))
            knots = {x for x, _ in reference.knots(u) if lo < x < hi}
            between = {lo + (hi - lo) * Fraction(rng.randint(1, 12), 13) for _ in range(rng.randint(0, 4))}
            for candidates in (source.atoms, set(source.atoms) | knots, set(source.atoms) | knots | between):
                _assert_same_lp(source, u, sorted(candidates))
            cdf = _random_cdf(rng, lo - 1, hi + 1)
            _assert_same_lp(source, cdf, _merged_grid(source, cdf, source.atoms))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(persuasion_problems())
    def test_generated_instances(self, problem):
        source, utility, cdf, candidates = problem
        _assert_same_lp(source, utility, candidates)
        _assert_same_lp(source, cdf, _merged_grid(source, cdf, candidates))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(persuasion_problems())
def test_started_solve_matches_the_fraction_tableau(problem):
    """From full disclosure, the integer tableau makes the rational tableau's pivots."""
    source, utility, cdf, candidates = problem
    for u, grid in ((utility, candidates), (cdf, _merged_grid(source, cdf, candidates))):
        weight_lp, start = reference.weight_lp(source, u, grid)
        assert lp.solve(weight_lp, start=start) == reference_solve(weight_lp, start)


class TestPriorAtomRows:
    """Order rows at the prior's interior atoms cut out the contractions that rows at every candidate do.

    The full-grid LP has no known vertex, so the reference's two-phase simplex solves it.
    """

    def test_seeded_instances(self):
        rng = Random(97)
        for _ in range(200):
            n = rng.randint(1, 5)
            source = random_smpc(rng, n, n).source
            lo, hi = source.atoms[0], source.atoms[-1]
            u = random_piecewise_linear(rng, lo - 1, hi + 1, interior=rng.randint(1, 4))
            knots = {x for x, _ in reference.knots(u) if lo < x < hi}
            extra = {lo + (hi - lo) * Fraction(rng.randint(1, 11), 12) for _ in range(rng.randint(0, 5))}
            candidates = tuple(sorted(set(source.atoms) | knots | extra))
            problem, start = reference.weight_lp(source, u, candidates)
            assert problem.constraint_matrix.rows == len(source.atoms)
            full = reference.full_grid_lp(source, u, candidates)
            rows, full_grid = lp.solve(problem, start=start), reference_solve(full)
            assert rows.status == full_grid.status == "optimal"
            assert rows.value == full_grid.value
            # The optimum of the fewer rows satisfies every row of the full grid.
            for row, b, sense in zip(full.constraint_matrix.entries, fractions_of(full.rhs), full.senses):
                lhs = sum(a * q for a, q in zip(row, rows.solution))
                assert lhs == b if sense == "eq" else lhs <= b


class TestDeviationPayoff:
    def test_full_disclosure_against_the_candidate_cdf(self):
        assert reference.deviation_payoff(DUEL_PRIOR, DUEL_CDF) == Fraction(1, 2)

    def test_point_mass_at_the_kink(self):
        dev = point_mass(Fraction(1, 2))
        assert reference.deviation_payoff(dev, DUEL_CDF) == Fraction(1, 3)

    def test_lower_endpoint_never_wins(self):
        dev = point_mass(Fraction(0))
        assert reference.deviation_payoff(dev, DUEL_CDF) == 0

    def test_atom_outside_the_domain(self):
        dev = point_mass(Fraction(9, 10))
        with pytest.raises(DomainError, match=r"^9/10 outside domain \[0, 3/4\]$"):
            reference.deviation_payoff(dev, DUEL_CDF)

    def test_rejects_non_cdfs(self):
        with pytest.raises(CdfError):
            reference.deviation_payoff(DUEL_PRIOR, pwl([("0", "0"), ("3/4", "2")]))


class TestCheckNoProfitableDeviation:
    def test_candidate_equilibrium_is_tight(self):
        check = check_no_profitable_deviation(
            DUEL_PRIOR, DUEL_CDF, DUEL_VALUE, DUEL_PRIOR.atoms
        )
        assert check.max_payoff == Fraction(1, 2)
        assert not check.profitable
        assert len(check.solution.optimum.target.atoms) <= 3
        assert DUEL_CDF.expectation(check.solution.optimum.target) == Fraction(1, 2)

    def test_nearly_uninformative_rival_invites_deviation(self):
        # A cdf that climbs from 0 to 1 on [0, 1/100] loses to almost any
        # strategy; pooling everything at the mean 1/2 wins outright.
        steep = pwl([("0", "0"), ("1/100", "1"), ("3/4", "1")])
        check = check_no_profitable_deviation(
            DUEL_PRIOR, steep, DUEL_VALUE, DUEL_PRIOR.atoms
        )
        assert check.max_payoff == 1
        assert check.profitable
        assert reference.deviation_payoff(DUEL_PRIOR, steep) == Fraction(5, 6)

    @pytest.mark.parametrize("value", ["abc", "1/0", 0.5, None])
    def test_a_malformed_equilibrium_value_fails_before_the_solve(self, monkeypatch, value):
        solves = []
        real = lp.solve

        def counted(problem, *, start):
            solves.append(problem)
            return real(problem, start=start)

        monkeypatch.setattr(lp, "solve", counted)
        with pytest.raises(ValueError, match="^not a rational: "):
            check_no_profitable_deviation(DUEL_PRIOR, DUEL_CDF, value, DUEL_PRIOR.atoms)
        assert solves == []
        check_no_profitable_deviation(DUEL_PRIOR, DUEL_CDF, DUEL_VALUE, DUEL_PRIOR.atoms)
        assert len(solves) == 1

    @pytest.mark.parametrize("candidates", [["0", "1"], ["0", "2"]], ids=["grid", "bad candidate"])
    def test_a_short_cdf_fails_first(self, monkeypatch, candidates):
        # A cdf over [1/4, 3/4] against a prior over [0, 1] is refused before
        # the solve, and before a candidate past the prior would be.
        solves = []
        monkeypatch.setattr(lp, "solve", lambda problem, *, start: solves.append(problem))
        narrow = pwl([("1/4", "0"), ("3/4", "1")])
        message = "^opponent cdf domain must cover the prior's atom range$"
        with pytest.raises(DomainError, match=message):
            check_no_profitable_deviation(dist(["0", "1"], ["1/2", "1/2"]), narrow, "1/2", candidates)
        assert solves == []

    def test_candidates_of_text_are_refused_before_the_solve(self, monkeypatch):
        # Read one character at a time, "01" would be the grid {0, 1}.
        solves = []
        monkeypatch.setattr(lp, "solve", lambda problem, *, start: solves.append(problem))
        cdf = pwl([("0", "0"), ("1", "1")])
        with pytest.raises(ValueError, match="^not a row of rationals: '01'$"):
            check_no_profitable_deviation(dist(["0", "1"], ["1/2", "1/2"]), cdf, "1/2", "01")
        assert solves == []

    @pytest.mark.parametrize("candidates", [b"\x00\x01", bytearray(b"\x00\x01")], ids=["bytes", "bytearray"])
    def test_candidates_of_bytes_are_refused(self, monkeypatch, candidates):
        # Read one byte at a time, b"\x00\x01" would be the grid {0, 1}.
        solves = []
        monkeypatch.setattr(lp, "solve", lambda problem, *, start: solves.append(problem))
        cdf = pwl([("0", "0"), ("1", "1")])
        with pytest.raises(ValueError, match=r"^not a row of rationals: (bytearray\()?b'\\x00\\x01'\)?$"):
            check_no_profitable_deviation(dist(["0", "1"], ["1/2", "1/2"]), cdf, "1/2", candidates)
        assert solves == []

    def test_witness_is_a_contraction_of_the_prior(self):
        check = check_no_profitable_deviation(
            DUEL_PRIOR, DUEL_CDF, DUEL_VALUE, DUEL_PRIOR.atoms
        )
        witness = check.solution.optimum
        SmpcTriple(witness.source, witness.transition, witness.target)
        assert witness.source == DUEL_PRIOR


class TestConstructMixedEquilibrium:
    def test_worked_strategy_splits_into_two(self):
        mixture = decompose_full(worked_triple())
        weights = tuple(w for w, _ in mixture.components)
        assert weights == (Fraction(4, 7), Fraction(3, 7))
        assert mixture.recompose() == worked_triple()

    def test_small_support_strategy_is_already_pure(self):
        triple = SmpcTriple(PRIOR, identity(3), PRIOR)
        mixture = decompose_full(triple)
        assert mixture.components == ((Fraction(1), triple),)

    def test_random_strategies_recompose(self):
        rng = Random(29)
        for _ in range(25):
            n = rng.randint(2, 5)
            triple = random_smpc(rng, n, rng.randint(n, 9))
            mixture = decompose_full(triple)
            assert mixture.recompose() == triple
            assert all(len(c.target.atoms) <= n for _, c in mixture.components)

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
