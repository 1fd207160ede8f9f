import json
import math
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_fraction_reference as reference
from linalg_fraction_reference import (
    NoSplitError,
    NullVectorError,
    RankError,
    UniquenessReport,
    verify_uniqueness,
    zero_column,
    zeroable_columns,
)
from mpcmix import (
    DiscreteDistribution,
    Matrix,
    Mixture,
    SmpcTriple,
    TransitionMatrix,
    apply_transition,
    decompose_full,
)
from mpcmix import decomposition, linalg
from mpcmix.errors import DimensionError, EntryRangeError, InternalError
from mpcmix.linalg import column_sums, integer_row

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
    column,
    dist,
    embedded,
    identity,
    mean,
    point_mass,
    tm,
    worked_triple,
)
from random_instances import random_smpc, random_split_instance


class TestZeroColumn:
    """Zeroing one column along the null direction, on the ``Fraction`` reference."""

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
        value = scale * GARBLING.entries[violation.row][violation.column]
        assert value < 0 or value > 1
        with pytest.raises(EntryRangeError):
            zero_column(GARBLING, NULL_COEFFS, 1)

    def test_the_first_entry_out_of_range_is_reported(self):
        # Row by row and column by column, entry (1,2) becomes 5/3 before
        # entry (1,3) becomes -2/3.
        with pytest.raises(EntryRangeError) as err:
            zero_column(GARBLING, NULL_COEFFS, 0)
        assert (err.value.row, err.value.column) == (1, 2)
        assert str(err.value) == "zeroing column 0 drives entry (1,2) to 5/3, outside [0, 1]"

    @pytest.mark.parametrize("j", [-1, 4, True])
    def test_a_column_outside_the_matrix_is_a_dimension_error(self, j, monkeypatch):
        # With integer_row gone, only a check made before any work can raise.
        monkeypatch.setattr(reference, "integer_row", None)
        with pytest.raises(DimensionError, match=f"^column {j!r} is not an index of the 4 columns$"):
            zero_column(GARBLING, NULL_COEFFS, j)

    def test_requires_a_null_vector(self):
        with pytest.raises(NullVectorError):
            zero_column(GARBLING, (1, 1, 1, 1), 0)

    @pytest.mark.parametrize(
        "coefficients",
        [(1.0, -2.0, -4.0, 3.0), ("1", "-2", "-4", "3"), (True, -2, -4, 3)],
        ids=["floats", "text", "bool"],
    )
    def test_coefficients_must_be_exact_values(self, coefficients):
        # Each would give the left branch if it were taken as its value.
        with pytest.raises(ValueError, match=f"^not a rational: {re.escape(repr(coefficients[0]))}$"):
            zero_column(GARBLING, coefficients, 2)

    @pytest.mark.parametrize("coefficients", [NULL_COEFFS[:3], NULL_COEFFS + (0,)], ids=["short", "long"])
    def test_coefficients_of_the_wrong_length(self, coefficients):
        with pytest.raises(DimensionError, match=f"^coefficient vector has length {len(coefficients)}, expected 4$"):
            zero_column(GARBLING, coefficients, 0)

    def test_requires_nonzero_coefficient(self):
        two_equal = tm([["1/3", "1/3", "1/3"], ["1/4", "1/4", "1/2"]])
        with pytest.raises(NullVectorError, match="^coefficient at column 2 is zero; it cannot be zeroed$"):
            zero_column(two_equal, (1, -1, 0), 2)

    def test_column_ratios_preserved(self):
        for j, result in ((2, LEFT_EMBEDDED), (3, RIGHT_EMBEDDED)):
            out = zero_column(GARBLING, NULL_COEFFS, j)
            for k in range(4):
                old = column(GARBLING, k)
                new = column(out, k)
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
                    half * merged_left.entries[i][k]
                    + half * merged_right.entries[i][k]
                    == m.entries[i][k]
                )


class TestBoundaryStep:
    """The one step that the walk and the peel take on {s >= 0 : F s = 1}."""

    def test_the_ends_from_one_along_the_null_direction_are_the_split_branches(self):
        result = reference.split_once(worked_triple())
        _, d = integer_row(NULL_COEFFS)
        ends = {}
        for direction in ([(k, x) for k, x in enumerate(d)], [(k, -x) for k, x in enumerate(d)]):
            point, den, a = decomposition._boundary_step([1] * 4, 1, direction, 0)
            ends[a] = [[x * Fraction(p, den) for x, p in zip(row, point)] for row in GARBLING.entries]
            assert point[a] == 0
        assert ends == {
            result.certificate.j_star: embedded(result.left, TARGET.atoms),
            result.certificate.j_star_star: embedded(result.right, TARGET.atoms),
        }

    def test_tied_coordinates_reach_zero_in_one_step(self):
        # Columns 0 and 2 tie along (1, -1, 1): the first of them is a, and
        # both reach zero; along (-1, 1, -1) column 1 alone does.
        assert reference.null_space_vector(tm([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])) == (1, -1, 1)
        step = decomposition._boundary_step
        assert step([1, 1, 1], 1, [(0, 1), (1, -1), (2, 1)], 0) == ([0, 2, 0], 1, 0)
        assert step([1, 1, 1], 1, [(0, -1), (1, 1), (2, -1)], 0) == ([2, 0, 2], 1, 1)

    def test_a_step_along_a_peeled_vertex_leaves_the_rest_of_the_remainder(self):
        # With F v = dv, the step from r along v gives r' with
        # r = lambda v + (1 - lambda) r' exactly, lambda = R_a dv / (den V_a).
        rng = Random(23)
        steps = 0
        for _ in range(30):
            triple = random_smpc(rng, rng.randint(2, 5), rng.randint(6, 10))
            m = triple.transition.cols
            basis = decomposition._Basis.of([ints for _, ints in triple.transition._integer_rows], m)
            remainder, den = [1] * m, 1
            while basis.deps:
                vertex, dv = decomposition._walk_to_vertex(basis, remainder, den)
                direction = [(k, v) for k, v in enumerate(vertex) if v]
                rest, rest_den, a = decomposition._boundary_step(remainder, den, direction, dv)
                lam = Fraction(remainder[a] * dv, den * vertex[a])
                assert 0 < lam < 1 and rest[a] == 0
                assert rest_den > 0 and math.gcd(rest_den, *rest) == 1
                for r, v, x in zip(remainder, vertex, rest):
                    assert Fraction(r, den) == lam * Fraction(v, dv) + (1 - lam) * Fraction(x, rest_den)
                for k, (r, x) in enumerate(zip(remainder, rest)):
                    if r and not x:
                        basis.drop(k)
                remainder, den = rest, rest_den
                steps += 1
        assert steps >= 30


class TestSplitOnce:
    """The m = n + 1 lemma's split, on the ``Fraction`` reference."""

    def test_worked_example(self):
        result = reference.split_once(worked_triple())
        assert result.certificate.alpha == ALPHA
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
        result = reference.split_once(triple)
        left = embedded(result.left, triple.target.atoms)
        right = embedded(result.right, triple.target.atoms)
        for i in range(3):
            for k in range(4):
                assert (
                    result.certificate.alpha * left[i][k]
                    + (1 - result.certificate.alpha) * right[i][k]
                    == triple.transition.entries[i][k]
                )
        alpha = result.certificate.alpha
        assert Mixture(((alpha, result.left), (1 - alpha, result.right))).recompose() == triple

    def test_independent_columns_refuse_to_split(self):
        triple = SmpcTriple(PRIOR, identity(3), PRIOR)
        with pytest.raises(NoSplitError):
            reference.split_once(triple)

    def test_tied_coefficients_zero_together(self):
        # c = (1, -1, 1): zeroing column 0 also empties its tied partner 2,
        # so one branch is full pooling and the other full disclosure.
        source = dist(["0", "1"], ["1/2", "1/2"])
        garbling = tm([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])
        triple = apply_transition(source, garbling)
        result = reference.split_once(triple)
        assert result.certificate.alpha == Fraction(1, 2)
        assert result.left.target == point_mass(Fraction(1, 2))
        assert result.right.target == source
        mixture = Mixture(((result.certificate.alpha, result.left), (1 - result.certificate.alpha, result.right)))
        assert mixture.recompose() == triple

    def test_alpha_strictly_interior(self):
        rng = Random(5)
        for _ in range(60):
            triple = random_smpc(rng, rng.randint(2, 5), rng.randint(6, 9))
            if len(triple.target.atoms) <= len(triple.source.atoms):
                continue
            result = reference.split_once(triple)
            assert 0 < result.certificate.alpha < 1


class TestDecomposeFull:
    def test_worked_example(self):
        mixture = decompose_full(worked_triple())
        assert len(mixture.components) == 2
        (w1, c1), (w2, c2) = mixture.components
        assert (w1, w2) == (Fraction(4, 7), Fraction(3, 7))
        assert c1.target == LEFT_TARGET
        assert c2.target == RIGHT_TARGET

    def test_narrow_input_is_a_singleton(self):
        triple = SmpcTriple(PRIOR, identity(3), PRIOR)
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
        # whose two ends are the reference split's branches, with weights
        # alpha and 1 - alpha.
        rng = Random(13)
        for k in range(40):
            triple = random_split_instance(rng, rng.randint(2, 5), generic=k % 2 == 0)
            result = reference.split_once(triple)
            components = decompose_full(triple).components
            assert len(components) == 2
            assert set(components) == {(result.certificate.alpha, result.left), (1 - result.certificate.alpha, result.right)}

    def test_deterministic(self):
        first = decompose_full(worked_triple())
        second = decompose_full(worked_triple())
        assert first == second
        rng = Random(71)
        for _ in range(20):
            triple = random_smpc(rng, rng.randint(2, 5), rng.randint(6, 11))
            first = json.dumps(decompose_full(triple).to_json())
            assert json.dumps(decompose_full(triple).to_json()) == first


@st.composite
def garblings(draw):
    """A source of 1 to 5 atoms garbled through a random row-stochastic matrix
    of up to 10 columns; some transitions copy a row, so their rank is below n."""
    n = draw(st.integers(1, 5), label="n")
    m = draw(st.integers(1, 10), label="m")
    atoms = draw(st.lists(st.fractions(-6, 6, max_denominator=6), min_size=n, max_size=n, unique=True), label="atoms")
    raw_weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n), label="weights")
    raw_rows = draw(
        st.lists(st.lists(st.integers(0, 6), min_size=m, max_size=m).filter(any), min_size=n, max_size=n),
        label="rows",
    )
    if n >= 2 and draw(st.booleans(), label="copy a row"):
        raw_rows[-1] = raw_rows[0]
    total = sum(raw_weights)
    source = DiscreteDistribution(tuple(sorted(atoms)), tuple(Fraction(w, total) for w in raw_weights))
    rows = tuple(tuple(Fraction(x, sum(row)) for x in row) for row in raw_rows)
    return apply_transition(source, TransitionMatrix(rows))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(garblings())
def test_decompositions_of_generated_garblings_are_exact(triple):
    _assert_exact_mixture(triple, decompose_full(triple))


def _assert_same_split(triple):
    """The peel's two boundary steps from 1, along the basis state's first
    dependency d and along -d, are the ``Fraction`` reference's split.

    The end that zeroes column j, built by the peel's component builder with
    weight |d_j| over the two ends' sum, is the reference's branch that zeroes
    j, with its weight; the certificate's null vector is d over its first
    entry. A triple with no dependency is one that the reference refuses.
    """
    basis = decomposition._transition_basis(triple)
    if not basis.deps:
        with pytest.raises(reference.NoSplitError):
            reference.split_once(triple)
        return
    result = reference.split_once(triple)
    certificate = result.certificate
    up = basis.dependency(next(iter(basis.deps)))
    d = dict(up)
    m = triple.transition.cols
    assert certificate.coefficients == tuple(Fraction(d.get(k, 0), up[0][1]) for k in range(m))
    ends = [decomposition._boundary_step([1] * m, 1, direction, 0) for direction in (up, [(k, -x) for k, x in up])]
    size = sum(abs(d[j]) for _, _, j in ends)
    scaled = [(Fraction(abs(d[j]), size), point, den) for point, den, j in ends]
    components = decomposition._components(triple, scaled)
    assert {j: component for (_, _, j), component in zip(ends, components)} == {
        certificate.j_star: (certificate.alpha, result.left),
        certificate.j_star_star: (1 - certificate.alpha, result.right),
    }


class TestMatchesTheFractionSplit:
    def test_seeded_garblings(self):
        rng = Random(37)
        for _ in range(200):
            _assert_same_split(random_smpc(rng, rng.randint(1, 6), rng.randint(1, 12)))
        for k in range(60):
            _assert_same_split(random_split_instance(rng, rng.randint(2, 5), generic=k % 2 == 0))
        tied = apply_transition(dist(["0", "1"], ["1/2", "1/2"]), tm([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]]))
        for triple in (worked_triple(), tied, SmpcTriple(PRIOR, identity(3), PRIOR)):
            _assert_same_split(triple)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(garblings())
    def test_generated_garblings(self, triple):
        _assert_same_split(triple)


class TestComponentChecks:
    def test_a_wrong_recomposition_total_is_an_internal_error(self, monkeypatch):
        def one_off(coefficients, rows):
            d, total = column_sums(coefficients, rows)
            return d, [total[0] + 1, *total[1:]]

        monkeypatch.setattr(decomposition, "column_sums", one_off)
        with pytest.raises(InternalError, match="^peel recomposition identity failed$"):
            decompose_full(worked_triple())

    def test_a_negative_scale_is_an_internal_error(self):
        with pytest.raises(InternalError, match="^peeled vertex has a negative scale at column 1$"):
            decomposition._components(worked_triple(), [(Fraction(1), [2, -1, 1, 1], 1)])


def _assert_exact_mixture(triple, mixture):
    """Small, valid components that recombine to the transition entry for entry."""
    n = len(triple.source.atoms)
    m = len(triple.target.atoms)
    assert len(mixture.components) <= m - reference.rank(triple.transition) + 1
    assert mixture.recompose() == triple
    # The same identity summed here, independently of recompose.
    total = [[Fraction(0)] * m for _ in range(n)]
    for weight, component in mixture.components:
        assert len(component.target.atoms) <= n
        SmpcTriple(component.source, component.transition, component.target)
        assert mean(component.target) == mean(triple.source)
        for i, row in enumerate(embedded(component, triple.target.atoms)):
            for k, x in enumerate(row):
                total[i][k] += weight * x
    assert Matrix(tuple(tuple(row) for row in total)) == Matrix(triple.transition.entries)


class TestRecompose:
    def test_worked_mixture(self):
        mixture = decompose_full(worked_triple())
        recomposed = mixture.recompose()
        assert isinstance(recomposed, SmpcTriple)
        assert recomposed == worked_triple()
        assert recomposed.target == TARGET

    def test_worked_split_mixture(self):
        left = SmpcTriple(PRIOR, LEFT_REDUCED, LEFT_TARGET)
        right = SmpcTriple(PRIOR, RIGHT_REDUCED, RIGHT_TARGET)
        assert Mixture(((ALPHA, left), (1 - ALPHA, right))).recompose() == worked_triple()

    def test_singleton(self):
        for triple in (worked_triple(), SmpcTriple(PRIOR, LEFT_REDUCED, LEFT_TARGET)):
            assert Mixture(((Fraction(1), triple),)).recompose() == triple

    def test_disclosure_pooling_blend(self):
        source = dist(["0", "1"], ["1/2", "1/2"])
        disclosed = SmpcTriple(source, tm([["1", "0"], ["0", "1"]]), source)
        pooled = apply_transition(source, tm([["1"], ["1"]]))
        mixture = Mixture(((Fraction(1, 2), disclosed), (Fraction(1, 2), pooled)))
        recomposed = mixture.recompose()
        assert recomposed.target == dist(["0", "1/2", "1"], ["1/4", "1/2", "1/4"])
        assert recomposed.transition == tm([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])

    def test_mixture_weight_validation(self):
        triple = worked_triple()
        with pytest.raises(ValueError):
            Mixture(((Fraction(1, 2), triple),))
        with pytest.raises(ValueError):
            Mixture(((Fraction(3, 2), triple), (Fraction(-1, 2), triple)))
        with pytest.raises(ValueError, match="^not a rational: 0.5$"):
            Mixture(((0.5, triple), (0.5, triple)))

    def test_mixture_needs_components_on_one_source(self):
        with pytest.raises(ValueError, match="^mixture needs at least one component$"):
            Mixture(())
        other = apply_transition(dist(["0", "1"], ["1/2", "1/2"]), tm([["1"], ["1"]]))
        with pytest.raises(ValueError, match="^mixture components must share one source$"):
            Mixture(((Fraction(1, 2), worked_triple()), (Fraction(1, 2), other)))


class TestEmbedTransition:
    """A split branch's transition, placed on the parent's atoms, is the zeroed transition."""

    def test_zeroed_columns_reappear(self):
        result = reference.split_once(worked_triple())
        assert Matrix(embedded(result.left, TARGET.atoms)) == Matrix(LEFT_EMBEDDED.entries)
        assert Matrix(embedded(result.right, TARGET.atoms)) == Matrix(RIGHT_EMBEDDED.entries)


def rank_deficient_triple():
    """Four columns in a two-dimensional space although the source has three
    atoms, so the null direction is not unique."""
    source = dist(["0", "1/2", "1"], ["1/3", "1/3", "1/3"])
    garbling = tm(
        [
            ["9/16", "3/8", "1/16", "0"],
            ["3/8", "3/8", "1/8", "1/8"],
            ["0", "3/8", "1/4", "3/8"],
        ]
    )
    return apply_transition(source, garbling)


class TestVerifyUniqueness:
    """For m = n + 1 and rank n, exactly the two group maximizers of the null
    direction, and the columns tied with them, admit zeroing."""

    def test_worked_example_pair(self):
        pair, zeroable, _ = verify_uniqueness(worked_triple())
        assert pair == (2, 3)
        assert zeroable == (2, 3)

    def test_small_generic_instance(self):
        source = dist(["0", "1"], ["1/2", "1/2"])
        garbling = tm([["3/5", "1/5", "1/5"], ["1/10", "3/10", "3/5"]])
        triple = apply_transition(source, garbling)
        assert triple.target.atoms == (Fraction(1, 7), Fraction(3, 5), Fraction(3, 4))
        pair, zeroable, certificate = verify_uniqueness(triple)
        assert pair == (1, 2)
        assert zeroable == (1, 2)
        assert certificate.alpha == Fraction(17, 25)
        assert [w for w, _ in decompose_full(triple).components] == [Fraction(17, 25), Fraction(8, 25)]

    def test_tied_columns_are_reported_as_zeroable(self):
        source = dist(["0", "1"], ["1/2", "1/2"])
        garbling = tm([["1/2", "1/2", "0"], ["0", "1/2", "1/2"]])
        triple = apply_transition(source, garbling)
        pair, zeroable, _ = verify_uniqueness(triple)
        assert pair == (0, 1)
        assert zeroable == (0, 1, 2)

    def test_shape_precondition(self):
        with pytest.raises(DimensionError):
            verify_uniqueness(SmpcTriple(PRIOR, identity(3), PRIOR))

    def test_rank_deficiency_is_reported(self):
        triple = rank_deficient_triple()
        assert len(triple.target.atoms) == 4
        with pytest.raises(RankError, match="^transition rank below source size: multiple null directions$"):
            verify_uniqueness(triple)

    def test_split_instances_need_two_source_atoms(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match=f"at least 2 source atoms, got n = {n}"):
                random_split_instance(Random(3), n)
        assert len(random_split_instance(Random(3), 2).target.atoms) == 3

    def test_random_generic_instances_have_two_zeroable_columns(self):
        rng = Random(41)
        for _ in range(40):
            triple = random_split_instance(rng, 3)
            pair, zeroable, _ = verify_uniqueness(triple)
            assert len(zeroable) == 2
            assert pair == zeroable

    def test_zeroable_columns_are_the_group_maximizers_and_their_ties(self):
        # Zeroing j scales column k by 1 - c_k / c_j, which is negative
        # exactly when |c_k| > |c_j| in j's sign group. The columns that
        # decompose_full's two components lack are those zeroed.
        rng = Random(43)
        for k in range(80):
            triple = random_split_instance(rng, rng.randint(2, 5), generic=k % 2 == 0)
            n = len(triple.source.atoms)
            assert reference.rank(triple.transition) == n
            pair, zeroable, certificate = verify_uniqueness(triple)
            c = certificate.coefficients
            maximizers = [j for j in range(n + 1) if c[j] and all(abs(x) <= abs(c[j]) for x in c if x * c[j] > 0)]
            assert zeroable == tuple(maximizers)
            assert set(pair) <= set(zeroable)
            atoms = triple.target.atoms
            components = decompose_full(triple).components
            lacking = {j for _, component in components for j, atom in enumerate(atoms) if atom not in component.target.atoms}
            assert lacking == set(zeroable)

    def test_matches_the_report_from_the_fraction_rank_and_split(self):
        rng = Random(43)
        for k in range(80):
            triple = random_split_instance(rng, rng.randint(2, 5), generic=k % 2 == 0)
            n = len(triple.source.atoms)
            assert reference.rank(triple.transition) == n
            certificate = reference.split_once(triple).certificate
            zeroable = []
            for j in range(n + 1):
                try:
                    zero_column(triple.transition, certificate.coefficients, j)
                except (EntryRangeError, NullVectorError):
                    continue
                zeroable.append(j)
            pair = tuple(sorted((certificate.j_star, certificate.j_star_star)))
            expected = UniquenessReport(pair=pair, zeroable=tuple(zeroable), certificate=certificate)
            report = verify_uniqueness(triple)
            assert report == expected
            assert repr(report) == repr(expected)


def test_a_decomposition_eliminates_once(monkeypatch):
    # The peel's state is built by one elimination over all m columns, and
    # every walk and peel updates it instead of eliminating again.
    runs = []
    echelon = linalg._echelon

    def counted(rows, columns):
        runs.append(len(columns))
        return echelon(rows, columns)

    monkeypatch.setattr(linalg, "_echelon", counted)
    monkeypatch.setattr(decomposition, "_echelon", counted)
    decompose_full(worked_triple())
    assert runs == [4]
    triple = random_smpc(Random(6), 6, 20)
    assert triple.transition.cols == 20
    runs.clear()
    assert len(decompose_full(triple).components) > 2
    assert runs == [20]


class TestMixtureJson:
    def test_round_trip(self):
        mixture = decompose_full(worked_triple())
        again = Mixture.from_json(mixture.to_json())
        assert again == mixture

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"components": []}, "mixture JSON needs 'source'"),
            ({"source": {"atoms": ["0"], "weights": ["1"]}}, "mixture JSON needs 'components'"),
            ([], "mixture JSON must be an object"),
        ],
        ids=["no source", "no components", "not an object"],
    )
    def test_from_json_needs_an_object_with_both_keys(self, obj, message):
        with pytest.raises(ValueError) as err:
            Mixture.from_json(obj)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda obj: obj.update(components="ab"), "'components' must be a JSON list, not str"),
            (lambda obj: obj.update(components={"weight": "1"}), "'components' must be a JSON list, not dict"),
            (lambda obj: obj["components"].__setitem__(1, "ab"), "mixture component 1 must be an object"),
            (lambda obj: obj["components"][0].pop("weight"), "mixture component 0 needs 'weight'"),
            (lambda obj: obj["components"][1].pop("target"), "mixture component 1 needs 'target'"),
            (lambda obj: obj["components"][0].pop("transition"), "mixture component 0 needs 'transition'"),
        ],
        ids=["components as text", "components as an object", "component as text", "weight", "target", "transition"],
    )
    def test_malformed_components_are_value_errors(self, edit, message):
        obj = decompose_full(worked_triple()).to_json()
        edit(obj)
        with pytest.raises(ValueError) as err:
            Mixture.from_json(obj)
        assert type(err.value) is ValueError
        assert str(err.value) == message
