"""The peel's persistent basis against fresh elimination and the from-scratch walk.

``decompose_full`` keeps the greedy basis of the remainder's support and each
other column's dependency on it, and updates them as columns are zeroed.
After every drop that state must be what a fresh ``_echelon`` of the
remaining support finds, and the mixture must be byte for byte the one that
re-eliminating the support at every walk step (``peel_oracle``) gives. A
corrupted dependency must be caught by the exact F v = 1 check.
"""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peel_oracle
from mpcmix.decomposition import _Basis, decompose_full
from mpcmix.distributions import TransitionMatrix, apply_transition
from mpcmix.errors import InternalError
from mpcmix.linalg import _echelon
from mpcmix.randgen import random_distribution

from cases import worked_triple
from random_instances import random_smpc


def fresh_state(rows, support):
    """The basic columns of ``support`` and the other columns' dependencies,
    as ``(column, coefficient)`` pairs, from a fresh elimination."""
    basic, deps = set(), {}
    for k, d in zip(support, _echelon(rows, support)):
        if d is None:
            basic.add(k)
        else:
            deps[k] = [(support[t], x) for t, x in enumerate(d) if x]
    return basic, deps


def assert_fresh(basis, rows, support):
    basic, deps = fresh_state(rows, support)
    assert {k for k in basis.columns if k is not None} == basic
    assert list(basis.deps) == list(deps)
    assert {j: basis.dependency(j) for j in basis.deps} == deps


def assert_same_mixture(triple):
    got, expected = decompose_full(triple), peel_oracle.decompose_full(triple)
    assert got == expected
    assert json.dumps(got.to_json(), indent=2) == json.dumps(expected.to_json(), indent=2)


def sparse_deficient(rng, n, m):
    """A garbling with many zero entries whose later rows may copy earlier ones."""
    rows = []
    for i in range(n):
        if i and rng.random() < 0.3:
            rows.append(list(rows[rng.randrange(i)]))
            continue
        row = [0] * m
        while not any(row):
            row = [rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(m)]
        rows.append(row)
    grid = tuple(tuple(Fraction(x, sum(row)) for x in row) for row in rows)
    return apply_transition(random_distribution(rng, n), TransitionMatrix(grid))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_drop_leaves_the_greedy_basis_of_the_rest(data):
    n = data.draw(st.integers(1, 5), label="n")
    m = data.draw(st.integers(1, 10), label="m")
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 7))
    rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n), label="rows")
    if n > 1 and data.draw(st.booleans(), label="copy a row"):
        rows[-1] = [-2 * x for x in rows[0]]
    order = data.draw(st.permutations(range(m)), label="drops")
    basis = _Basis.of(rows, m)
    support = list(range(m))
    assert_fresh(basis, rows, support)
    for k in order:
        before = basis.copy()
        basis.drop(k)
        support.remove(k)
        assert_fresh(basis, rows, support)
        assert_fresh(before, rows, sorted([*support, k]))


def test_seeded_garblings_match_the_from_scratch_walk():
    rng = Random(37)
    for k in range(120):
        n = rng.randint(1, 7)
        m = n + rng.randint(0, 12)
        assert_same_mixture(sparse_deficient(rng, n, m) if k % 2 else random_smpc(rng, n, m))


@pytest.mark.parametrize("n, m", [(6, 20), (6, 40), (10, 40), (20, 80)])
def test_wide_garblings_match_the_from_scratch_walk(n, m):
    assert_same_mixture(random_smpc(Random(n * 1000 + m), n, m))


def test_a_corrupted_dependency_fails_the_exact_check(monkeypatch):
    build = _Basis.of

    def corrupted(rows, m):
        basis = build(rows, m)
        j = next(iter(basis.deps))
        cj, v = basis.deps[j]
        basis.deps[j] = (cj, [2 * x for x in v])
        return basis

    monkeypatch.setattr(_Basis, "of", corrupted)
    for triple in (worked_triple(), random_smpc(Random(3), 4, 9)):
        with pytest.raises(InternalError, match=r"^peeled vertex fails F v = 1 at row \d+$"):
            decompose_full(triple)
