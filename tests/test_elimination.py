"""Fraction-free elimination and the integer peel against the Fraction reference.

The basis state ``_Basis.of`` must count the rank of the ``Fraction``
elimination kept in ``linalg_fraction_reference`` in its basic columns; its
first dependency, and the first that ``_echelon`` yields on any column
subset, must be that reference's null vector as coprime integers; and
``decompose_full`` must return an equal ``Mixture`` with equal JSON bytes,
its first vertex equal to that of the from-scratch walk in ``peel_oracle``. The instances are seeded and generated:
wide matrices, rank-deficient transitions, duplicate columns, zero rows,
negative entries and coprime denominators near 10**6.
"""

import json
from fractions import Fraction
from math import gcd
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_fraction_reference as reference
import peel_oracle
from mpcmix.decomposition import _Basis, _walk_to_vertex, decompose_full
from mpcmix.distributions import DiscreteDistribution, TransitionMatrix, apply_transition
from mpcmix.linalg import Matrix, _echelon, integer_row

from cases import coprime_integers
from random_instances import random_smpc

PROFILE = settings(max_examples=100, deadline=None, derandomize=True, database=None)
LARGE_PRIMES = (1_000_003, 1_000_033, 1_000_037, 1_000_039, 1_000_081, 1_000_099)


def first_dependency(rows, columns):
    return next((d for d in _echelon(rows, columns) if d is not None), None)


def columns_of(matrix, columns):
    return Matrix(tuple(tuple(row[k] for k in columns) for row in matrix.entries))


def assert_same_elimination(matrix, subsets=(), row_scales=None):
    """The basis state's rank and first dependency, and the kernel's dependency on column subsets."""
    rows = [integer_row(row)[1] for row in matrix.entries]
    basis = _Basis.of(rows, matrix.cols)
    assert len(basis.columns) == reference.rank(matrix)
    expected = reference.null_space_vector(matrix)
    if expected is None:
        assert basis.deps == {}
    else:
        d = coprime_integers(expected)
        assert basis.dependency(next(iter(basis.deps))) == [(k, x) for k, x in enumerate(d) if x]
    for columns in (range(matrix.cols), *subsets):
        expected = reference.null_space_vector(columns_of(matrix, columns))
        got = first_dependency(rows, columns)
        assert got == (None if expected is None else coprime_integers(expected))
        if row_scales is not None:
            # Scaling a row by a nonzero integer changes nothing.
            scaled = [[s * x for x in row] for s, row in zip(row_scales, rows)]
            assert first_dependency(scaled, columns) == got


def assert_same_peel(triple):
    """An equal mixture with equal JSON, and the same first vertex in lowest terms."""
    got, expected = decompose_full(triple), reference.decompose_full(triple)
    assert got == expected
    assert json.dumps(got.to_json()) == json.dumps(expected.to_json())
    m = triple.transition.cols
    rows = [ints for _, ints in triple.transition._integer_rows]
    vertex, den = peel_oracle.walk_to_vertex(rows, [1] * m, 1)
    assert _walk_to_vertex(_Basis.of(rows, m), [1] * m, 1) == (vertex, den)
    assert den > 0 and gcd(den, *vertex) == 1
    start = [Fraction(1)] * m
    assert [Fraction(v, den) for v in vertex] == reference._walk_to_vertex(triple.transition.entries, start)


def stochastic_rows(raw_rows, primes=None):
    """Row i is ``raw_rows[i]`` over its sum, or, with ``primes``, the gaps
    between its values read as cut points of ``[0, primes[i]]``, over that prime."""
    if primes is None:
        return [[Fraction(x, sum(row)) for x in row] for row in raw_rows]
    rows = []
    for row, p in zip(raw_rows, primes):
        cuts = [0, *sorted(x % p for x in row[1:]), p]
        rows.append([Fraction(b - a, p) for a, b in zip(cuts, cuts[1:])])
    return rows


def make_deficient(rows, kind, i, j, k):
    """Row j copies row i (``"copy"``), or row k is the mean of rows i and j (``"mix"``)."""
    n = len(rows)
    i, j, k = i % n, j % n, k % n
    if kind == "copy" and i != j:
        rows[j] = list(rows[i])
    if kind == "mix" and len({i, j, k}) == 3:
        rows[k] = [(x + y) / 2 for x, y in zip(rows[i], rows[j])]
    return rows


def variants(matrix, j, q, signs):
    """``matrix``, its transpose, a copy with column j duplicated at q, one
    with a zero row at q, and one with the columns' signs flipped by ``signs``."""
    entries = [list(row) for row in matrix.entries]
    width = matrix.cols
    duplicated = [row[:q % (width + 1)] + [row[j % width]] + row[q % (width + 1):] for row in entries]
    zero_row = entries[: q % (len(entries) + 1)] + [[Fraction(0)] * width] + entries[q % (len(entries) + 1):]
    flipped = [[-x if s else x for x, s in zip(row, signs)] for row in entries]
    return [
        matrix,
        Matrix(tuple(zip(*matrix.entries))),
        *(Matrix(tuple(map(tuple, grid))) for grid in (duplicated, zero_row, flipped)),
    ]


class TestMatchesTheFractionElimination:
    def test_worked_and_degenerate_matrices(self):
        for rows in (
            [[1, 2], [2, 4]],
            [[0, 0, 0], [0, 0, 0]],
            [[0, 1, 1], [0, 2, 2]],
            [["1/3", "1/3", "1/5"], ["2/5", "2/5", "1/7"]],
            [[1, 0], [0, 1], [1, 1]],
            [[0]],
            [[5]],
        ):
            matrix = Matrix.from_rows(rows)
            assert_same_elimination(matrix, [[k] for k in range(matrix.cols)], [3] * matrix.rows)

    def test_seeded_matrices(self):
        rng = Random(23)
        for _ in range(200):
            n, m = rng.randint(1, 6), rng.randint(1, 9)
            big = rng.random() < 0.3

            def entry():
                if rng.random() < 0.3:
                    return Fraction(0)
                if big:
                    return Fraction(rng.randint(-10**6, 10**6), rng.choice(LARGE_PRIMES))
                return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

            entries = [[entry() for _ in range(m)] for _ in range(n)]
            if n >= 3 and rng.random() < 0.4:
                entries = make_deficient(entries, "mix", 0, 1, 2)
            matrix = Matrix(tuple(map(tuple, entries)))
            signs = [rng.random() < 0.5 for _ in range(m)]
            for variant in variants(matrix, rng.randrange(m), rng.randrange(m + 1), signs):
                subsets = [sorted(rng.sample(range(variant.cols), rng.randint(1, variant.cols))) for _ in range(3)]
                scales = [rng.choice((-3, -1, 2, 7, 1_000_003)) for _ in range(variant.rows)]
                assert_same_elimination(variant, subsets, scales)


class TestMatchesTheFractionPeel:
    def test_seeded_garblings(self):
        rng = Random(29)
        shapes = [(3, 6), (4, 8), (5, 10), (5, 11), (2, 7), (6, 9), (1, 4), (3, 3)]
        for k in range(120):
            n, m = shapes[k % len(shapes)]
            assert_same_peel(random_smpc(rng, n, m))
        for seed, n, m in ((3, 3, 20), (4, 5, 16)):
            assert_same_peel(random_smpc(Random(seed), n, m))

    def test_seeded_large_denominators_and_deficient_ranks(self):
        rng = Random(31)
        for k in range(60):
            n, m = rng.randint(2, 5), rng.randint(3, 9)
            atoms = sorted(rng.sample(range(-60, 61), n))
            source = DiscreteDistribution(
                tuple(Fraction(a, 7) for a in atoms), tuple(Fraction(1, n) for _ in range(n))
            )
            primes = rng.sample(LARGE_PRIMES, n)
            raw = [[rng.randint(0, 10**6) for _ in range(m)] for _ in range(n)]
            rows = stochastic_rows(raw, primes if k % 2 else None)
            if k % 3:
                rows = make_deficient(rows, "copy" if k % 3 == 1 else "mix", 0, 1, 2)
            triple = apply_transition(source, TransitionMatrix(tuple(map(tuple, rows))))
            assert_same_peel(triple)

    @PROFILE
    @given(st.data())
    def test_generated_garblings(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        m = data.draw(st.integers(1, 9), label="m")
        big = data.draw(st.booleans(), label="big")
        denominator = st.sampled_from(LARGE_PRIMES) if big else st.integers(1, 6)
        atoms = data.draw(
            st.lists(st.builds(Fraction, st.integers(-50, 50), denominator), min_size=n, max_size=n, unique=True),
            label="atoms",
        )
        raw_weights = data.draw(st.lists(st.integers(1, 10**6 if big else 9), min_size=n, max_size=n), label="weights")
        top = 10**6 if big else 6
        raw_rows = data.draw(
            st.lists(st.lists(st.integers(0, top), min_size=m, max_size=m).filter(any), min_size=n, max_size=n),
            label="rows",
        )
        primes = data.draw(st.lists(st.sampled_from(LARGE_PRIMES), min_size=n, max_size=n), label="primes") if big else None
        rows = stochastic_rows(raw_rows, primes)
        kind = data.draw(st.sampled_from(("none", "copy", "mix")), label="deficient")
        i, j, k = data.draw(st.tuples(*[st.integers(0, n - 1)] * 3), label="rows picked")
        rows = make_deficient(rows, kind, i, j, k)
        matrix = Matrix(tuple(map(tuple, rows)))

        signs = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="signs")
        column, position = data.draw(st.integers(0, m - 1), label="column"), data.draw(st.integers(0, m), label="at")
        for variant in variants(matrix, column, position, signs):
            subset = data.draw(st.sets(st.integers(0, variant.cols - 1), min_size=1), label="subset")
            assert_same_elimination(variant, [sorted(subset)], [-2] + [1] * (variant.rows - 1))

        total = sum(raw_weights)
        source = DiscreteDistribution(tuple(sorted(atoms)), tuple(Fraction(w, total) for w in raw_weights))
        assert_same_peel(apply_transition(source, TransitionMatrix(matrix.entries)))
