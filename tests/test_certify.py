"""The integer-row certification against the per-entry Fraction reference.

Row checks, identity checks and ``apply_transition`` must give the same
results, and the same errors (type, message, ``row`` and ``column``), as the
loops in ``certify_fraction_reference`` on seeded and generated garblings:
valid ones, corrupted entries and row sums, broken identities, merged and
zero columns, and large coprime denominators.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import certify_fraction_reference as reference
from mpcmix.distributions import DiscreteDistribution, SmpcTriple, TransitionMatrix, apply_transition
from mpcmix.errors import MpcError
from mpcmix.linalg import ROW_PASS_MIN, Matrix, column_sums, integer_row

PROFILE = settings(max_examples=100, deadline=None, derandomize=True, database=None)
LARGE_PRIMES = (1_000_003, 1_000_033, 1_000_037, 1_000_039, 1_000_081, 1_000_099)


def outcome(fn, *args):
    """``fn``'s result, or its error as (type, message, row, column)."""
    try:
        return fn(*args)
    except MpcError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)


def certify(cls, *args) -> None:
    cls(*args)


def build(atoms, raw_weights, raw_rows, zero_at=None, split=None):
    """A source and a row-stochastic matrix from raw nonnegative integers.

    Row i is ``raw_rows[i]`` over its sum. ``zero_at`` inserts an all-zero
    column there. ``split = (j, t)`` replaces column j by t times it and
    (1 - t) times it, two columns with one barycenter.
    """
    total = sum(raw_weights)
    source = DiscreteDistribution(tuple(sorted(atoms)), tuple(Fraction(w, total) for w in raw_weights))
    rows = [[Fraction(x, sum(row)) for x in row] for row in raw_rows]
    if zero_at is not None:
        for row in rows:
            row.insert(zero_at % (len(row) + 1), Fraction(0))
    if split is not None:
        j, t = split[0] % len(rows[0]), split[1]
        for row in rows:
            row[j:j + 1] = [t * row[j], (1 - t) * row[j]]
    return source, Matrix(tuple(tuple(row) for row in rows))


def corrupt_entry(matrix, i, j, value):
    rows = [list(row) for row in matrix.entries]
    rows[i % len(rows)][j % len(rows[0])] = value
    return Matrix(tuple(tuple(row) for row in rows))


def shift_weight(dist, k, delta):
    """``dist`` with ``delta`` moved from weight k+1 to weight k, if still valid."""
    if len(dist.weights) < 2:
        return None
    k %= len(dist.weights) - 1
    weights = list(dist.weights)
    weights[k] += delta
    weights[k + 1] -= delta
    return DiscreteDistribution(dist.atoms, tuple(weights)) if weights[k + 1] > 0 else None


def shift_atom(dist, k, delta):
    """``dist`` with atom k moved by ``delta``, if the atoms stay increasing."""
    k %= len(dist.atoms)
    atoms = list(dist.atoms)
    atoms[k] += delta
    if any(atoms[r] >= atoms[r + 1] for r in range(len(atoms) - 1)):
        return None
    return DiscreteDistribution(tuple(atoms), dist.weights)


def assert_same(source, matrix, i, j, delta):
    """Every certification step agrees with the reference, on ``matrix`` and corruptions of it."""
    assert outcome(certify, TransitionMatrix, matrix.entries) == outcome(reference.check_rows, matrix)
    target = reference.apply_transition(source, TransitionMatrix(matrix.entries)).target
    for bad in (-delta, 1 + delta, matrix.entries[i % matrix.rows][j % matrix.cols] + delta):
        broken = corrupt_entry(matrix, i, j, bad)
        expected = outcome(reference.check_rows, broken)
        assert isinstance(expected, tuple)
        assert outcome(certify, TransitionMatrix, broken.entries) == expected
        # The identity check reads the entries as given, in range or not.
        trusted = TransitionMatrix._trusted(tuple(map(integer_row, broken.entries)))
        if len(target.atoms) == matrix.cols:
            assert outcome(certify, SmpcTriple, source, trusted, target) == outcome(
                reference.check_identities, source, trusted, target
            )

    transition = TransitionMatrix(matrix.entries)
    expected = reference.apply_transition(source, transition)
    got = apply_transition(source, transition)
    assert got == expected
    assert got.to_json() == expected.to_json()

    reduced = expected.transition
    targets = [expected.target, shift_weight(expected.target, i, delta), shift_atom(expected.target, j, delta)]
    for target in filter(None, targets):
        assert outcome(certify, SmpcTriple, source, reduced, target) == outcome(
            reference.check_identities, source, reduced, target
        )
    wide = TransitionMatrix._trusted(tuple(map(integer_row, matrix.entries)))
    if len(expected.target.atoms) != matrix.cols:
        assert outcome(certify, SmpcTriple, source, wide, expected.target) == outcome(
            reference.check_identities, source, wide, expected.target
        )

    weights = list(source.weights)
    weights[i % len(weights)] += delta
    for bad in (tuple(weights), (Fraction(0),) + source.weights[1:]):
        assert outcome(certify, DiscreteDistribution, source.atoms, bad) == outcome(
            reference.check_weights, bad
        )


class TestMatchesTheFractionReference:
    def test_seeded_garblings(self):
        rng = Random(71)
        for _ in range(150):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            big = rng.random() < 0.3
            top = 10**6 if big else 6
            atoms = [Fraction(a, rng.choice(LARGE_PRIMES) if big else rng.randint(1, 5)) for a in rng.sample(range(-40, 41), n)]
            raw_weights = [rng.randint(1, top) for _ in range(n)]
            raw_rows = [[rng.randint(0, top) for _ in range(m - 1)] + [rng.randint(1, top)] for _ in range(n)]
            if len(set(atoms)) < n:
                continue
            zero_at = rng.randrange(m + 1) if rng.random() < 0.3 else None
            split = (rng.randrange(m), Fraction(rng.randint(1, 6), 7)) if rng.random() < 0.3 else None
            source, matrix = build(atoms, raw_weights, raw_rows, zero_at, split)
            delta = Fraction(1, rng.choice(LARGE_PRIMES) if big else rng.randint(2, 9))
            assert_same(source, matrix, rng.randrange(n), rng.randrange(matrix.cols), delta)

    @PROFILE
    @given(st.data())
    def test_generated_garblings(self, data):
        n = data.draw(st.integers(1, 8), label="n")
        m = data.draw(st.integers(1, 7), label="m")
        big = data.draw(st.booleans(), label="big")
        top = 10**6 if big else 4
        denominator = st.sampled_from(LARGE_PRIMES) if big else st.integers(1, 6)
        atoms = data.draw(
            st.lists(st.builds(Fraction, st.integers(-50, 50), denominator), min_size=n, max_size=n, unique=True),
            label="atoms",
        )
        raw_weights = data.draw(st.lists(st.integers(1, top), min_size=n, max_size=n), label="weights")
        raw_rows = data.draw(
            st.lists(
                st.lists(st.integers(0, top), min_size=m, max_size=m).filter(any),
                min_size=n,
                max_size=n,
            ),
            label="rows",
        )
        zero_at = data.draw(st.none() | st.integers(0, m), label="zero_at")
        split = data.draw(st.none() | st.tuples(st.integers(0, m - 1), st.fractions(0, 1).filter(lambda t: 0 < t < 1)))
        source, matrix = build(atoms, raw_weights, raw_rows, zero_at, split)
        i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, matrix.cols - 1), label="j")
        delta = data.draw(st.builds(Fraction, st.integers(1, 3), denominator), label="delta")
        assert_same(source, matrix, i, j, delta)


@PROFILE
@given(st.data())
def test_wide_garblings_apply_as_the_reference_does(data):
    # Rows of ROW_PASS_MIN to 3 x ROW_PASS_MIN columns, with zero-mass columns,
    # split columns (two columns of one barycenter) and shuffled columns; a
    # single source atom puts every column at one barycenter.
    n = data.draw(st.integers(1, 10), label="n")
    m = data.draw(st.integers(ROW_PASS_MIN, 3 * ROW_PASS_MIN), label="m")
    big = data.draw(st.booleans(), label="big")
    top = 10**6 if big else 4
    denominator = st.sampled_from(LARGE_PRIMES) if big else st.integers(1, 6)
    atoms = data.draw(
        st.lists(st.builds(Fraction, st.integers(-50, 50), denominator), min_size=n, max_size=n, unique=True),
        label="atoms",
    )
    raw_weights = data.draw(st.lists(st.integers(1, top), min_size=n, max_size=n), label="weights")
    raw_rows = data.draw(
        st.lists(st.lists(st.integers(0, top), min_size=m, max_size=m).filter(any), min_size=n, max_size=n),
        label="rows",
    )
    zeros = data.draw(st.sets(st.integers(0, m - 1), max_size=3), label="zero columns")
    for row in raw_rows:
        for j in zeros:
            row[j] = 0
        if not any(row):
            row[min(set(range(m)) - zeros)] = 1
    splits = data.draw(st.lists(st.integers(0, m - 1), max_size=3), label="split columns")
    source, matrix = build(atoms, raw_weights, raw_rows)
    rows = [list(row) for row in matrix.entries]
    for j in splits:
        for row in rows:
            row[j:j + 1] = [row[j] / 3, row[j] * 2 / 3]
    order = data.draw(st.permutations(range(len(rows[0]))), label="column order")
    transition = TransitionMatrix(tuple(tuple(row[j] for j in order) for row in rows))
    expected = reference.apply_transition(source, transition)
    got = apply_transition(source, transition)
    assert got == expected
    assert got.to_json() == expected.to_json()
    # A transition in barycenter order with no column dropped or merged is kept as it is.
    assert (got.transition is transition) == (expected.transition == transition)
    again = apply_transition(source, got.transition)
    assert again == got
    assert again.transition is got.transition


def test_column_sums_match_fraction_sums():
    rng = Random(5)
    for _ in range(100):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        values = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 1_000_003))) for _ in range(m)] for _ in range(n)]
        coefficients = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
        for row in values:
            scale, ints = integer_row(row)
            assert scale > 0 and [Fraction(x, scale) for x in ints] == row
        d, sums = column_sums(integer_row(coefficients), [integer_row(row) for row in values])
        expected = [sum(c * row[j] for c, row in zip(coefficients, values)) for j in range(m)]
        assert [Fraction(s, d) for s in sums] == expected
