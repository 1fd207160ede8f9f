from fractions import Fraction
from random import Random

import pytest

from mpcmix import (
    DiscreteDistribution,
    SmpcTriple,
    TransitionMatrix,
    apply_transition,
    decompose_full,
    is_mpc,
    mpc_violation,
)
from mpcmix.errors import (
    BarycenterIdentityError,
    DimensionError,
    DistributionError,
    EntryRangeError,
    RowSumError,
    WeightIdentityError,
)
from mpcmix.linalg import Matrix, integer_row
from mpcmix.randgen import random_distribution, random_transition

from cases import (
    GARBLING,
    LEFT_EMBEDDED,
    LEFT_TARGET,
    PRIOR,
    TARGET,
    column,
    dist,
    identity,
    integrated_cdf,
    mean,
    point_mass,
    tm,
    worked_triple,
)
from random_instances import random_smpc


class TestDiscreteDistribution:
    def test_atoms_must_increase(self):
        with pytest.raises(DistributionError):
            dist(["1/2", "0"], ["1/2", "1/2"])
        with pytest.raises(DistributionError):
            dist(["0", "0"], ["1/2", "1/2"])

    def test_weights_positive_and_normalized(self):
        with pytest.raises(DistributionError):
            dist(["0", "1"], ["1", "0"])
        with pytest.raises(DistributionError):
            dist(["0", "1"], ["1/2", "1/3"])
        with pytest.raises(DistributionError):
            dist(["0", "1"], ["1/2"])

    def test_mean(self):
        assert mean(PRIOR) == Fraction(11, 20)
        assert mean(TARGET) == Fraction(11, 20)
        assert mean(point_mass("5/6")) == Fraction(5, 6)

    def test_json_round_trip(self):
        again = DiscreteDistribution.from_json(PRIOR.to_json())
        assert again == PRIOR

    def test_equality_and_hash_do_not_depend_on_the_container(self):
        half = Fraction(1, 2)
        built = DiscreteDistribution((Fraction(0), Fraction(1)), (half, half))
        atoms = [0, 1]
        for d in (
            DiscreteDistribution(atoms, [half, half]),
            DiscreteDistribution((0, 1), [half, half]),
            DiscreteDistribution((x for x in (0, 1)), (w for w in (half, half))),
            DiscreteDistribution.from_rows((["0", "1"], ("1/2", "0.5"))),
        ):
            assert d == built
            assert hash(d) == hash(built)
            assert type(d.atoms) is tuple and type(d.weights) is tuple
            assert all(type(x) is Fraction for x in d.atoms + d.weights)
        # A list the caller still holds does not reach into a checked distribution.
        held = DiscreteDistribution(atoms, [half, half])
        atoms.append(2)
        assert held == built and held.atoms == (0, 1)

    def test_many_large_denominators_round_trip(self):
        # The atom row's scale is the lcm of every atom's denominator, here
        # thousands of bits; each atom is read and written in lowest terms.
        rng = Random(3)
        atoms = sorted({Fraction(rng.getrandbits(64), rng.getrandbits(64) | 1) for _ in range(40)})
        raw = [rng.randint(1, 9) for _ in atoms]
        text = {"atoms": [str(a) for a in atoms], "weights": [str(Fraction(w, sum(raw))) for w in raw]}
        d = DiscreteDistribution.from_json(text)
        assert d._integer_rows[0] == integer_row(atoms)
        assert d.to_json() == text
        assert d.atoms == tuple(atoms)

    def test_the_inherited_row_reader_is_checked(self):
        assert DiscreteDistribution.from_rows([["0", "1"], ["1/2", "1/2"]]) == dist(["0", "1"], ["1/2", "1/2"])
        for rows in ([["0", "1"]], [["0", "1"], ["1/2", "1/2"], ["1/2", "1/2"]], [["1", "0"], ["1/2", "1/2"]]):
            with pytest.raises(DistributionError):
                DiscreteDistribution.from_rows(rows)


class TestTransitionMatrix:
    def test_row_sums_enforced(self):
        with pytest.raises(RowSumError):
            tm([["1/2", "1/3"], ["1/2", "1/2"]])

    def test_entry_range_enforced(self):
        with pytest.raises(EntryRangeError):
            tm([["3/2", "-1/2"], ["1/2", "1/2"]])

    def test_zero_columns_are_legal(self):
        assert column(LEFT_EMBEDDED, 2) == (Fraction(0),) * 3

    def test_is_a_matrix_without_a_wrapper(self):
        assert isinstance(GARBLING, Matrix)
        assert not hasattr(GARBLING, "matrix")
        assert (GARBLING.rows, GARBLING.cols) == (3, 4)

    def test_inherited_constructors_build_checked_transitions(self):
        assert type(TransitionMatrix.from_rows([["1/2", "1/2"]])) is TransitionMatrix
        with pytest.raises(RowSumError, match=r"row 1 sums to 5/6, not 1"):
            TransitionMatrix.from_rows([["1", "0"], ["1/2", "1/3"]])
        # An empty grid, which identity(0) builds, is no transition.
        with pytest.raises(ValueError, match="^matrix needs at least one row and one column$"):
            TransitionMatrix(())
        with pytest.raises(ValueError, match="^matrix needs at least one row and one column$"):
            TransitionMatrix.from_rows([])


class TestValidateSmpc:
    def test_worked_example_is_valid(self):
        triple = SmpcTriple(PRIOR, GARBLING, TARGET)
        assert triple.target == TARGET

    def test_identity_garbling(self):
        triple = SmpcTriple(PRIOR, identity(3), PRIOR)
        assert triple.target == PRIOR

    def test_weight_identity_violation_is_localized(self):
        # First row reweighted to (1/2, 1/2, 0, 0): still stochastic, but the
        # first column now absorbs too much mass.
        broken = tm(
            [
                ["1/2", "1/2", "0", "0"],
                ["1/3", "0", "1/3", "1/3"],
                ["0", "1/4", "1/4", "1/2"],
            ]
        )
        with pytest.raises(WeightIdentityError) as err:
            SmpcTriple(PRIOR, broken, TARGET)
        assert err.value.column == 0

    def test_barycenter_identity_violation(self):
        shifted = dist(["1/6", "1/2", "3/4", "7/8"], ["3/10", "1/5", "1/5", "3/10"])
        with pytest.raises(BarycenterIdentityError) as err:
            SmpcTriple(PRIOR, GARBLING, shifted)
        assert err.value.column == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            SmpcTriple(PRIOR, identity(4), TARGET)

    def test_point_mass_admits_no_wider_contraction(self):
        # Splitting a point mass over {0, 1} keeps the weights but not the
        # barycenters: every contraction of a point mass is the point mass.
        source = point_mass(Fraction(1, 2))
        target = dist(["0", "1"], ["1/2", "1/2"])
        with pytest.raises(BarycenterIdentityError):
            SmpcTriple(source, tm([["1/2", "1/2"]]), target)
        assert not is_mpc(source, target)


class TestApplyTransition:
    def test_worked_example(self):
        triple = apply_transition(PRIOR, GARBLING)
        assert triple.target == TARGET
        assert triple.transition == GARBLING

    def test_wrong_row_count(self):
        with pytest.raises(DimensionError, match="^transition has 2 rows, expected 3$"):
            apply_transition(PRIOR, tm([["1", "0"], ["0", "1"]]))

    def test_full_pooling(self):
        ones = tm([["1"], ["1"], ["1"]])
        triple = apply_transition(PRIOR, ones)
        assert triple.target == point_mass(Fraction(11, 20))

    def test_zero_column_dropped(self):
        triple = apply_transition(PRIOR, LEFT_EMBEDDED)
        assert triple.target == LEFT_TARGET
        assert triple.transition.cols == 3

    def test_equal_barycenters_merged(self):
        source = dist(["0", "1"], ["1/2", "1/2"])
        # Columns 1 and 2 are proportional, so they pool at the same point.
        garbling = tm(
            [
                ["1/2", "1/4", "1/8", "1/8"],
                ["1/4", "1/4", "1/8", "3/8"],
            ]
        )
        triple = apply_transition(source, garbling)
        assert triple.target == dist(["1/3", "1/2", "3/4"], ["3/8", "3/8", "1/4"])
        assert triple.transition == tm(
            [
                ["1/2", "3/8", "1/8"],
                ["1/4", "3/8", "3/8"],
            ]
        )

    def test_an_ordered_transition_is_kept_as_it_is(self):
        # GARBLING's columns all carry mass, at distinct barycenters in order.
        assert apply_transition(PRIOR, GARBLING).transition is GARBLING
        reversed_columns = tm([row[::-1] for row in GARBLING.to_json()["rows"]])
        triple = apply_transition(PRIOR, reversed_columns)
        assert triple.transition is not reversed_columns
        assert triple == apply_transition(PRIOR, GARBLING)

    def test_random_outputs_revalidate(self):
        rng = Random(23)
        for _ in range(120):
            n, m = rng.randint(1, 6), rng.randint(1, 10)
            triple = random_smpc(rng, n, m)
            SmpcTriple(triple.source, triple.transition, triple.target)
            assert mean(triple.target) == mean(triple.source)
            atoms = triple.target.atoms
            assert all(atoms[k] < atoms[k + 1] for k in range(len(atoms) - 1))

    def test_built_targets_go_through_the_checks(self, monkeypatch):
        # The garbled target and every mixture component's target are built
        # as integer rows, and each goes through DiscreteDistribution's checks.
        checked = []
        real = DiscreteDistribution._set_rows

        def spy(self, rows):
            checked.append(rows)
            real(self, rows)

        monkeypatch.setattr(DiscreteDistribution, "_set_rows", spy)
        monkeypatch.setattr(DiscreteDistribution, "_trusted", None)
        triple = apply_transition(PRIOR, GARBLING)
        mixture = decompose_full(triple)
        targets = [triple.target] + [component.target for _, component in mixture.components]
        # The peel builds its components before it sorts them.
        assert sorted(map(id, checked)) == sorted(id(target._integer_rows) for target in targets)


class TestMpcOrder:
    def test_worked_pair(self):
        assert is_mpc(PRIOR, TARGET)

    def test_full_pooling_is_mpc(self):
        assert is_mpc(PRIOR, point_mass(Fraction(11, 20)))

    def test_mean_mismatch(self):
        shifted = dist(["0", "1/2", "9/8"], ["3/10", "3/10", "2/5"])
        assert mpc_violation(PRIOR, shifted) == "mean mismatch"

    def test_spread_is_not_mpc(self):
        pooled = point_mass(Fraction(1, 2))
        spread = dist(["0", "1"], ["1/2", "1/2"])
        assert not is_mpc(pooled, spread)
        assert is_mpc(spread, pooled)
        assert "integrated cdf exceeds" in mpc_violation(pooled, spread)

    def test_reflexive(self):
        assert is_mpc(PRIOR, PRIOR)

    def test_random_garblings_are_mpcs(self):
        rng = Random(31)
        for _ in range(100):
            n, m = rng.randint(1, 6), rng.randint(1, 10)
            source = random_distribution(rng, n)
            triple = apply_transition(source, random_transition(rng, n, m))
            assert is_mpc(source, triple.target)

    def test_sweep_matches_the_definition(self):
        # Random pairs in both orders: garblings of a common source against
        # the source and each other, and unrelated pairs of the same size.
        rng = Random(59)
        seen = set()
        for _ in range(150):
            n = rng.randint(1, 7)
            source = random_distribution(rng, n)
            first, second = (
                apply_transition(source, random_transition(rng, n, rng.randint(1, 9))).target
                for _ in range(2)
            )
            for x, y in ((source, first), (first, second), (source, random_distribution(rng, n))):
                for a, b in ((x, y), (y, x)):
                    expected = _violation_by_definition(a, b)
                    assert mpc_violation(a, b) == expected
                    seen.add(expected if expected is None else expected.split(" at ")[0])
        assert seen == {None, "mean mismatch", "integrated cdf exceeds"}


def _violation_by_definition(source, candidate):
    """mpc_violation's contract, with both integrated cdfs evaluated at every atom."""
    if mean(candidate) != mean(source):
        return "mean mismatch"
    for t in sorted(set(source.atoms) | set(candidate.atoms)):
        if integrated_cdf(candidate, t) > integrated_cdf(source, t):
            return f"integrated cdf exceeds at {t}"
    return None


class TestTripleJson:
    def test_round_trip(self):
        triple = worked_triple()
        assert SmpcTriple.from_json(triple.to_json()) == triple
