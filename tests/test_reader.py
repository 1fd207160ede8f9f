"""The rational-text reader against ``Fraction(str)``.

``parse_rational`` reads plain ``"a"`` and ``"a/b"`` text with ``int`` and
hands everything else to ``Fraction(str)`` behind the size check. These
properties hold it, and ``Matrix.from_rows``, to ``Fraction``'s grammar,
values and error messages over generated text, ``parse_row``'s
whole-row passes over long rows of one denominator to the per-value reader,
``PiecewiseLinearFn.from_pairs`` to the same row reader, and the row writer
``row_text`` to ``str(Fraction)``.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmix import (
    DiscreteDistribution,
    Matrix,
    PiecewiseLinearFn,
    TransitionMatrix,
    check_no_profitable_deviation,
    parse_rational,
    solve_linear_persuasion,
)
from mpcmix.linalg import (
    MAX_DIGITS,
    ROW_PASS_MIN,
    _check_size,
    _plain_row,
    _ratio,
    canonical_row,
    integer_row,
    parse_row,
    row_text,
)

PROFILE = settings(max_examples=400, deadline=None, derandomize=True, database=None)

# ASCII, Arabic-Indic, fullwidth and NKo decimal digits: int and Fraction's
# \d read them all.
DIGITS = "0123456789" "٠١٢٣٤٥٦٧٨٩" "０１２３４５６７８９" "߀߁߂"


def fraction_reference(text):
    """What ``parse_rational`` did with text before the plain-ratio reader."""
    _check_size(text)
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text[:40]!r}") from exc


def outcome(parse, *args):
    """The value, with its type, or the ``ValueError`` message."""
    try:
        value = parse(*args)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return "value", type(value), value


digit_runs = st.one_of(
    st.text(DIGITS, min_size=1, max_size=6),
    # Digit runs at and just past MAX_DIGITS.
    st.sampled_from([MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1]).map(lambda k: "7" * k),
    st.lists(st.text(DIGITS, min_size=1, max_size=3), min_size=2, max_size=3).map("_".join),
)
tails = st.one_of(
    st.just(""),
    digit_runs.map("/{}".format),
    st.sampled_from(["/0", "/00", "/", "/-1", "/+1", "//1"]),
    digit_runs.map(".{}".format),
    st.builds("{}{}{}".format, st.sampled_from(["e", "E"]), st.sampled_from(["", "-", "+"]), digit_runs),
)
pads = st.sampled_from(["", "", "", " ", "\t", "\n ", " "])
texts = st.one_of(
    st.builds(
        "{}{}{}{}{}".format, pads, st.sampled_from(["", "", "-", "+", "--", "-+"]), digit_runs, tails, pads
    ),
    # Superscripts and vulgar fractions are digits to str.isdigit but not decimals.
    st.text(DIGITS[:10] + "-+/._eE x²٣", max_size=8),
    st.sampled_from(["1/0", "-0", "0/5", "", "-", "/", "½", "٣/٤", "1_/2", "_1", "1__0", "0x10", "inf", "nan"]),
)


@PROFILE
@given(texts)
def test_parse_rational_reads_text_as_fraction_does(text):
    assert outcome(parse_rational, text) == outcome(fraction_reference, text)


def plain_spellings(x):
    """Texts of the plain form ``-?D+`` or ``-?D+/D+`` that denote the rational ``x``."""
    p, q = x.numerator, x.denominator
    forms = [str(x), f"{3 * p}/{3 * q}", str(x).translate(str.maketrans("0123456789", DIGITS[10:20]))]
    if q == 1:
        forms.append(f"{p}/1")
    return forms


def spellings(x):
    """Texts and values that all denote the rational ``x``."""
    p, q = x.numerator, x.denominator
    forms = [x, *plain_spellings(x), f" {x} "]
    if p >= 0:
        forms.append(f"+{x}")
    if q == 1:
        forms.append(p)
    scaled = x * 10**6
    if scaled.denominator == 1:
        n = abs(scaled.numerator)
        forms.append(f"{'-' if p < 0 else ''}{n // 10**6}.{n % 10**6:06d}")
    return forms


@st.composite
def text_grids(draw):
    """A grid of rationals, row-stochastic or not, and one text spelling of it."""
    n = draw(st.integers(1, 4), label="n")
    m = draw(st.integers(1, 5), label="m")
    entry = st.fractions(-3, 3, max_denominator=12)
    grid = [[draw(entry) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans(), label="stochastic"):
        grid = [[abs(x) / sum(map(abs, row)) for x in row] if any(row) else [Fraction(1)] + row[1:] for row in grid]
    text = [[draw(st.sampled_from(spellings(x))) for x in row] for row in grid]
    return tuple(map(tuple, grid)), text


@PROFILE
@given(text_grids())
def test_from_rows_makes_the_integer_rows_of_the_fractions(grid_and_text):
    grid, text = grid_and_text
    matrix = Matrix.from_rows(text)
    assert matrix._integer_rows == tuple(integer_row(row) for row in grid)
    assert matrix.entries == grid
    assert matrix == Matrix(grid)
    assert hash(matrix) == hash(Matrix(grid))
    assert TransitionMatrix._trusted(matrix._integer_rows).to_json() == {"rows": [[str(x) for x in row] for row in grid]}
    # The row checks read the same integer rows, so they agree to the message.
    assert outcome(TransitionMatrix.from_rows, text) == outcome(TransitionMatrix, grid)


# Values that make a row of plain text not plain: not text, text holding the
# whole-row reader's separator, an empty numerator or denominator, a zero
# denominator, and a digit run past MAX_DIGITS.
ODD_VALUES = [Fraction(1, 3), 2, True, 0.5, None, "1 -2/3", "1/2 3", "1/", "/2", "1/0", "7" * (MAX_DIGITS + 1)]

# Values that only a row read as one joined text could misread, in a row
# over "3": another denominator that ends in it, a second slash, a space,
# tab or other whitespace inside, before or after a value, an underscore
# (which int reads, and Fraction on 3.10 does not), a plus sign, and digit
# runs past MAX_DIGITS in either part, or a value longer than MAX_DIGITS
# whose digit runs are not.
JOINED_TEXT_VALUES = [
    "1/13",
    "1/3/3",
    "1/33",
    "1/03",
    "1//3",
    "/3",
    "1 /3",
    "1/ 3",
    " 1/3",
    "1/3 ",
    "1 2/3",
    "1\t/3",
    "\t1/3",
    "1/3\t",
    "\t5",
    "1\n/3",
    "1\xa0/3",
    "\u20031/3",
    "1_0/3",
    "1_0",
    "+1/3",
    "+5",
    "-0/3",
    "0",
    "5",
    "1" * (MAX_DIGITS + 1) + "/3",
    "1/" + "3" * (MAX_DIGITS + 1),
    "-" + "1" * MAX_DIGITS + "/3",
    "1" * MAX_DIGITS + "/3",
]


# A few small or large rationals that a long row draws its values from.
pools = st.lists(
    st.one_of(st.fractions(-3, 3, max_denominator=12), st.fractions(max_denominator=10**20)), min_size=1, max_size=6
)


def per_value_row(values):
    """The row as ``parse_row`` reads it one value at a time."""
    ratios = [_ratio(x) for x in values]
    scale = lcm(*(q for _, q in ratios))
    return scale, [p * (scale // q) for p, q in ratios]


def one_denominator(plain):
    """Whether the plain texts ``plain`` have at most one denominator text."""
    return len({x.partition("/")[2] for x in plain if "/" in x}) <= 1


@PROFILE
@given(pools, st.integers(ROW_PASS_MIN, 3 * ROW_PASS_MIN), st.randoms(use_true_random=False), st.data())
def test_parse_row_reads_long_rows_as_the_per_value_reader_does(pool, k, rng, data):
    def put(row, value):
        i = rng.randrange(len(row))
        return [*row[:i], value, *row[i + 1 :]]

    xs = [rng.choice(pool) for _ in range(k)]
    plain = [rng.choice(plain_spellings(x)) for x in xs]
    assert (_plain_row(plain) is not None) == one_denominator(plain)
    assert parse_row(plain) == per_value_row(plain) == integer_row(xs)
    # One value that is not plain, at a random position, puts the whole row on
    # the per-value reader, which refuses the first value that it cannot read;
    # the values that a joined text could misread must be read as it reads them.
    for value in (rng.choice(spellings(rng.choice(xs))), data.draw(texts), *ODD_VALUES, *JOINED_TEXT_VALUES):
        row = put(plain, value)
        assert outcome(parse_row, row) == outcome(per_value_row, row)
    row = put(put([rng.choice(spellings(x)) for x in xs], data.draw(texts)), rng.choice(ODD_VALUES))
    assert outcome(parse_row, row) == outcome(per_value_row, row)


@PROFILE
@given(pools, st.integers(ROW_PASS_MIN, 3 * ROW_PASS_MIN), st.integers(1, 4), st.randoms(use_true_random=False))
def test_parse_row_reads_rows_over_one_denominator_in_whole_row_passes(pool, k, multiple, rng):
    # D is a multiple of the pool's lcm, so the values over it are unreduced
    # ("4/8"); bare integers and "0" stay bare, and the first value is over D.
    d = multiple * lcm(*(x.denominator for x in pool))
    xs = [rng.choice([*pool, Fraction(rng.randint(-9, 9)), Fraction(0)]) for _ in range(k)]
    row = [f"{x * d}/{d}" if i == 0 or x.denominator != 1 or rng.random() < 0.5 else str(x) for i, x in enumerate(xs)]
    assert _plain_row(row) == parse_row(row) == per_value_row(row) == integer_row(xs)
    # One value over a second denominator text sends the row to the per-value reader.
    i = rng.randrange(1, k)
    for other in (f"{xs[i] * 2 * d}/{2 * d}", f"{xs[i] * d}/0{d}"):
        mixed = [*row[:i], other, *row[i + 1 :]]
        assert _plain_row(mixed) is None
        assert parse_row(mixed) == per_value_row(mixed) == integer_row(xs)
    # A zero denominator is refused even as the row's only one.
    over_zero = [f"{xs[0].numerator}/0", *(str(x.numerator) for x in xs[1:])]
    assert _plain_row(over_zero) is None
    assert outcome(parse_row, over_zero) == outcome(per_value_row, over_zero)


@pytest.mark.parametrize("value", JOINED_TEXT_VALUES)
@pytest.mark.parametrize("position", [0, 1, ROW_PASS_MIN // 2, ROW_PASS_MIN - 1])
def test_a_joined_row_over_one_denominator_reads_each_value_as_the_per_value_reader_does(value, position):
    # The row over "3" holds bare values too, and the value at ``position``
    # is the one that the joined text could misread.
    row = [str(k) if k % 4 == 0 else f"{k - 7}/3" for k in range(ROW_PASS_MIN)]
    row[position] = value
    assert outcome(parse_row, row) == outcome(per_value_row, row)


@pytest.mark.parametrize(
    "row, expected",
    [
        # gcd(D, *ps) = 4: the numerators share a factor with D.
        (["4/8", "-12/8", "8/8", "2"] * (ROW_PASS_MIN // 4), (2, [1, -3, 2, 4] * (ROW_PASS_MIN // 4))),
        (["0/8"] * ROW_PASS_MIN, (1, [0] * ROW_PASS_MIN)),
        (["0/8", "0"] * ROW_PASS_MIN, (1, [0] * 2 * ROW_PASS_MIN)),
        (["3", "-7", "0"] * ROW_PASS_MIN, (1, [3, -7, 0] * ROW_PASS_MIN)),
    ],
    ids=["gcd 4", "zeros over D", "zeros over D and bare", "bare integers"],
)
def test_plain_row_reduces_a_row_over_one_denominator(row, expected):
    assert _plain_row(row) == parse_row(row) == per_value_row(row) == expected


@pytest.mark.parametrize("k", [3, ROW_PASS_MIN, 2 * ROW_PASS_MIN])
def test_rows_may_be_iterators(k):
    weights = [f"1/{k}"] * k
    grid = [[f"{j}/{k}" for j in range(k)], weights]
    assert Matrix.from_rows(iter(row) for row in grid) == Matrix.from_rows(grid)
    assert TransitionMatrix.from_rows([(x for x in weights)]) == TransitionMatrix.from_rows([weights])
    assert DiscreteDistribution.from_rows(map(iter, grid)) == DiscreteDistribution.from_rows(grid)
    # A prior on {0, 1}, a tent utility, a cdf and k candidates that hold both atoms.
    source = DiscreteDistribution.from_rows((["0", "1"], ["1/2", "1/2"]))
    utility = PiecewiseLinearFn.from_json({"knots": [["0", "0"], ["1/2", "1"], ["1", "0"]]})
    cdf = PiecewiseLinearFn.from_json({"knots": [["0", "0"], ["1", "1"]]})
    candidates = [f"{j}/{k - 1}" for j in range(k)]
    assert solve_linear_persuasion(source, utility, iter(candidates)) == solve_linear_persuasion(
        source, utility, candidates
    )
    assert check_no_profitable_deviation(source, cdf, "1/2", (x for x in candidates)) == check_no_profitable_deviation(
        source, cdf, "1/2", candidates
    )


# Small, zero, negative and 200-bit values and scales.
codec_ints = st.one_of(st.integers(-12, 12), st.just(0), st.integers(-(2**200), 2**200))
codec_scales = st.one_of(st.just(1), st.integers(1, 12), st.integers(1, 2**200))


@PROFILE
@given(codec_scales, st.lists(codec_ints, max_size=8), st.integers(2, 6))
def test_row_text_writes_each_value_as_its_fraction_does(scale, ints, factor):
    # Scaling the row by a factor puts it out of lowest terms: gcd(scale, *ints) > 1.
    for s, xs in ((scale, ints), (scale * factor, [x * factor for x in ints])):
        text = row_text(s, xs)
        assert text == [str(Fraction(x, s)) for x in xs]
        if xs:
            assert parse_row(text) == canonical_row(s, xs)


@pytest.mark.parametrize(
    "scale, ints, expected",
    [
        (1, [0, -3, 7], ["0", "-3", "7"]),
        (6, [0, -3, 4, 12, -18, 1], ["0", "-1/2", "2/3", "2", "-3", "1/6"]),
        (2**200, [-(2**200), 2**199 + 1, 0], ["-1", f"{2**199 + 1}/{2**200}", "0"]),
        (5, [], []),
    ],
    ids=["scale 1", "negatives and zeros", "200 bits", "empty"],
)
def test_row_text_examples(scale, ints, expected):
    assert row_text(scale, ints) == expected


@PROFILE
@given(st.integers(2, 3 * ROW_PASS_MIN), st.integers(1, 12), st.randoms(use_true_random=False))
def test_from_pairs_reads_the_knots_as_two_rows(k, d, rng):
    xs = sorted(rng.sample(range(-5 * k, 5 * k), k))
    ys = [rng.randint(-3 * d, 3 * d) for _ in range(k)]
    knots = tuple((Fraction(x, d), Fraction(y, d)) for x, y in zip(xs, ys))
    # Both columns over the one denominator text d, so that a column of
    # ROW_PASS_MIN knots or more is read in whole-row passes, and then
    # spelled value by value in any form, as tuples or as lists.
    over_d = [(f"{x}/{d}", f"{y}/{d}") for x, y in zip(xs, ys)]
    spelled = [[rng.choice(spellings(x)), rng.choice(spellings(y))] for x, y in knots]
    for column in zip(*over_d):
        assert _plain_row(column) == per_value_row(column)
    for pairs in (over_d, spelled):
        u = PiecewiseLinearFn.from_pairs(pairs)
        assert u == PiecewiseLinearFn.from_rows(zip(*pairs)) == PiecewiseLinearFn(knots)
