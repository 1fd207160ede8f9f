import json
from fractions import Fraction
from random import Random

import pytest

from mpcmix import (
    DiscreteDistribution,
    Matrix,
    Mixture,
    SmpcTriple,
    TransitionMatrix,
    apply_transition,
    decompose_full,
    embed_transition,
    rank,
    split_once,
    verify_uniqueness,
    zero_column,
)
from mpcmix.errors import DimensionError, EntryRangeError, NoSplitError, NullVectorError, RankError
from mpcmix.randgen import random_smpc, random_split_instance

from cases import (
    ALPHA,
    GARBLING,
    LEFT_EMBEDDED,
    LEFT_REDUCED,
    LEFT_TARGET,
    NULL_COEFFS,
    PRIOR,
    RIGHT_EMBEDDED,
    RIGHT_REDUCED,
    RIGHT_TARGET,
    TARGET,
    dist,
    tm,
    worked_triple,
)


class TestZeroColumn:
    def test_zeroing_the_negative_maximizer(self):
        assert zero_column(GARBLING, NULL_COEFFS, 2) == LEFT_EMBEDDED

    def test_zeroing_the_positive_maximizer(self):
        assert zero_column(GARBLING, NULL_COEFFS, 3) == RIGHT_EMBEDDED

    def test_non_maximizer_leaves_range(self):
        # Column 0 does not maximize |c| within its sign group: zeroing it
        # scales column 2 by 1 - (-4)/1 = 5 (entry (1,2) becomes 5/3) and
        # column 3 by 1 - 3/1 = -2, so the result cannot stay in [0, 1].
        with pytest.raises(EntryRangeError) as err:
            zero_column(GARBLING, NULL_COEFFS, 0)
        violation = err.value
        scale = 1 - NULL_COEFFS[violation.column] / NULL_COEFFS[0]
        value = scale * GARBLING.matrix.entries[violation.row][violation.column]
        assert value < 0 or value > 1
        with pytest.raises(EntryRangeError):
            zero_column(GARBLING, NULL_COEFFS, 1)

    def test_requires_a_null_vector(self):
        with pytest.raises(NullVectorError):
            zero_column(GARBLING, (1, 1, 1, 1), 0)

    def test_requires_nonzero_coefficient(self):
        two_equal = tm([["1/3", "1/3", "1/3"], ["1/4", "1/4", "1/2"]])
        with pytest.raises(NullVectorError):
            zero_column(two_equal, (1, -1, 0), 2)

    def test_column_ratios_preserved(self):
        for j, result in ((2, LEFT_EMBEDDED), (3, RIGHT_EMBEDDED)):
            out = zero_column(GARBLING, NULL_COEFFS, j)
            for k in range(4):
                old = GARBLING.column(k)
                new = out.column(k)
                scale = None
                for a, b in zip(old, new):
                    if a != 0:
                        if scale is None:
                            scale = b / a
                        assert b == scale * a
                assert scale is None or scale >= 0

    def test_duplicate_columns_pool_into_each_other(self):
        # Two identical columns: zeroing either folds it onto its twin, and
        # the halves recombine exactly.
        m = tm([["1/4", "1/4", "1/2"], ["3/8", "3/8", "1/4"]])
        c = (Fraction(1), Fraction(-1), Fraction(0))
        merged_left = zero_column(m, c, 0)
        merged_right = zero_column(m, c, 1)
        assert merged_left == tm([["0", "1/2", "1/2"], ["0", "3/4", "1/4"]])
        assert merged_right == tm([["1/2", "0", "1/2"], ["3/4", "0", "1/4"]])
        half = Fraction(1, 2)
        for i in range(2):
            for k in range(3):
                assert (
                    half * merged_left.matrix.entries[i][k]
                    + half * merged_right.matrix.entries[i][k]
                    == m.matrix.entries[i][k]
                )


class TestSplitOnce:
    def test_worked_example(self):
        result = split_once(worked_triple())
        assert result.alpha == ALPHA
        assert result.left.target == LEFT_TARGET
        assert result.left.transition == LEFT_REDUCED
        assert result.right.target == RIGHT_TARGET
        assert result.right.transition == RIGHT_REDUCED
        cert = result.certificate
        assert cert.coefficients == NULL_COEFFS
        assert (cert.j_star, cert.j_star_star) == (2, 3)
        assert cert.group_a == (1, 2)
        assert cert.group_b == (0, 3)

    def test_embedded_recomposition(self):
        triple = worked_triple()
        result = split_once(triple)
        left = embed_transition(result.left, triple.target.atoms)
        right = embed_transition(result.right, triple.target.atoms)
        for i in range(3):
            for k in range(4):
                assert (
                    result.alpha * left.entries[i][k]
                    + (1 - result.alpha) * right.entries[i][k]
                    == triple.transition.matrix.entries[i][k]
                )

    def test_independent_columns_refuse_to_split(self):
        triple = SmpcTriple(PRIOR, TransitionMatrix.identity(3), PRIOR)
        with pytest.raises(NoSplitError):
            split_once(triple)

    def test_tied_coefficients_zero_together(self):
        # c = (1, -1, 1): zeroing column 0 also empties its tied partner 2,
        # so one branch is full pooling and the other full disclosure.
        source = dist(["0", "1"], ["1/2", "1/2"])
        garbling = tm([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])
        triple = apply_transition(source, garbling)
        result = split_once(triple)
        assert result.alpha == Fraction(1, 2)
        assert result.left.target == DiscreteDistribution.point_mass(Fraction(1, 2))
        assert result.right.target == source
        mixture = Mixture(((result.alpha, result.left), (1 - result.alpha, result.right)))
        assert mixture.recompose() == triple.target

    def test_alpha_strictly_interior(self):
        rng = Random(5)
        for _ in range(60):
            triple = random_smpc(rng, rng.randint(2, 5), rng.randint(6, 9))
            if len(triple.target.atoms) <= len(triple.source.atoms):
                continue
            result = split_once(triple)
            assert 0 < result.alpha < 1


class TestDecomposeFull:
    def test_worked_example(self):
        mixture = decompose_full(worked_triple())
        assert len(mixture.components) == 2
        (w1, c1), (w2, c2) = mixture.components
        assert (w1, w2) == (Fraction(4, 7), Fraction(3, 7))
        assert c1.target == LEFT_TARGET
        assert c2.target == RIGHT_TARGET

    def test_narrow_input_is_a_singleton(self):
        triple = SmpcTriple(PRIOR, TransitionMatrix.identity(3), PRIOR)
        mixture = decompose_full(triple)
        assert mixture.components == ((Fraction(1), triple),)

    def test_random_instances_recompose_exactly(self):
        rng = Random(97)
        for _ in range(60):
            n = rng.randint(2, 6)
            m = rng.randint(n, 10)
            triple = random_smpc(rng, n, m)
            _assert_exact_mixture(triple, decompose_full(triple))

    def test_targets_too_wide_for_a_split_tree(self):
        # A full split tree needs 2^(m-n) - 1 splits: 131071 here at
        # n = 3, m = 20, and about 1.7e10 at n = 6, m = 40.
        for seed, n, m in ((3, 3, 20), (4, 6, 40)):
            triple = random_smpc(Random(seed), n, m)
            assert len(triple.target.atoms) - n >= 15
            _assert_exact_mixture(triple, decompose_full(triple))

    def test_segment_matches_split_once(self):
        # With m = n + 1 and rank n the column-scale polytope is a segment
        # whose two ends are split_once's branches.
        rng = Random(13)
        for k in range(40):
            triple = random_split_instance(rng, rng.randint(2, 5), generic=k % 2 == 0)
            result = split_once(triple)
            components = decompose_full(triple).components
            assert len(components) == 2
            assert set(components) == {(result.alpha, result.left), (1 - result.alpha, result.right)}

    def test_deterministic(self):
        first = decompose_full(worked_triple())
        second = decompose_full(worked_triple())
        assert first == second
        rng = Random(71)
        for _ in range(20):
            triple = random_smpc(rng, rng.randint(2, 5), rng.randint(6, 11))
            first = json.dumps(decompose_full(triple).to_json())
            assert json.dumps(decompose_full(triple).to_json()) == first


def _assert_exact_mixture(triple, mixture):
    """Small, valid components that recombine to the transition entry for entry."""
    n = len(triple.source.atoms)
    m = len(triple.target.atoms)
    assert len(mixture.components) <= m - rank(triple.transition.matrix) + 1
    assert mixture.recompose() == triple.target
    total = [[Fraction(0)] * m for _ in range(n)]
    for weight, component in mixture.components:
        assert len(component.target.atoms) <= n
        SmpcTriple(component.source, component.transition, component.target)
        assert component.target.mean() == triple.source.mean()
        embedded = embed_transition(component, triple.target.atoms)
        for i, row in enumerate(embedded.entries):
            for k, x in enumerate(row):
                total[i][k] += weight * x
    assert Matrix(tuple(tuple(row) for row in total)) == triple.transition.matrix


class TestRecompose:
    def test_worked_mixture(self):
        mixture = decompose_full(worked_triple())
        assert mixture.recompose() == TARGET

    def test_singleton(self):
        triple = worked_triple()
        mixture = Mixture(((Fraction(1), triple),))
        assert mixture.recompose() == TARGET

    def test_disclosure_pooling_blend(self):
        source = dist(["0", "1"], ["1/2", "1/2"])
        disclosed = SmpcTriple(source, tm([["1", "0"], ["0", "1"]]), source)
        pooled = apply_transition(source, tm([["1"], ["1"]]))
        mixture = Mixture(((Fraction(1, 2), disclosed), (Fraction(1, 2), pooled)))
        assert mixture.recompose() == dist(["0", "1/2", "1"], ["1/4", "1/2", "1/4"])

    def test_mixture_weight_validation(self):
        triple = worked_triple()
        with pytest.raises(ValueError):
            Mixture(((Fraction(1, 2), triple),))
        with pytest.raises(ValueError):
            Mixture(((Fraction(3, 2), triple), (Fraction(-1, 2), triple)))


class TestEmbedTransition:
    def test_zeroed_columns_reappear(self):
        result = split_once(worked_triple())
        assert embed_transition(result.left, TARGET.atoms) == LEFT_EMBEDDED.matrix
        assert embed_transition(result.right, TARGET.atoms) == RIGHT_EMBEDDED.matrix

    def test_unknown_atom_is_an_error(self):
        result = split_once(worked_triple())
        with pytest.raises(DimensionError):
            embed_transition(result.left, (Fraction(0), Fraction(1)))


class TestVerifyUniqueness:
    def test_worked_example_pair(self):
        report = verify_uniqueness(worked_triple())
        assert report.pair == (2, 3)
        assert report.zeroable == (2, 3)

    def test_small_generic_instance(self):
        source = dist(["0", "1"], ["1/2", "1/2"])
        garbling = tm([["3/5", "1/5", "1/5"], ["1/10", "3/10", "3/5"]])
        triple = apply_transition(source, garbling)
        assert triple.target.atoms == (Fraction(1, 7), Fraction(3, 5), Fraction(3, 4))
        report = verify_uniqueness(triple)
        assert report.pair == (1, 2)
        assert report.zeroable == (1, 2)
        assert report.certificate.alpha == Fraction(17, 25)

    def test_tied_columns_are_reported_as_zeroable(self):
        source = dist(["0", "1"], ["1/2", "1/2"])
        garbling = tm([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])
        triple = apply_transition(source, garbling)
        report = verify_uniqueness(triple)
        assert report.pair == (0, 1)
        assert report.zeroable == (0, 1, 2)

    def test_shape_precondition(self):
        with pytest.raises(DimensionError):
            verify_uniqueness(SmpcTriple(PRIOR, TransitionMatrix.identity(3), PRIOR))

    def test_rank_deficiency_is_reported(self):
        # Columns live in a two-dimensional space although the source has
        # three atoms, so the null direction is not unique.
        source = dist(["0", "1/2", "1"], ["1/3", "1/3", "1/3"])
        garbling = tm(
            [
                ["9/16", "3/8", "1/16", "0"],
                ["3/8", "3/8", "1/8", "1/8"],
                ["0", "3/8", "1/4", "3/8"],
            ]
        )
        triple = apply_transition(source, garbling)
        assert len(triple.target.atoms) == 4
        with pytest.raises(RankError):
            verify_uniqueness(triple)

    def test_random_generic_instances_have_two_zeroable_columns(self):
        rng = Random(41)
        for _ in range(40):
            triple = random_split_instance(rng, 3)
            report = verify_uniqueness(triple)
            assert len(report.zeroable) == 2
            assert tuple(sorted(report.pair)) == report.zeroable


class TestMixtureJson:
    def test_round_trip(self):
        mixture = decompose_full(worked_triple())
        again = Mixture.from_json(mixture.to_json())
        assert again == mixture
