"""Exact rational scalars, dense rational matrices, and their rational text.

A scalar that leaves a row is a :class:`fractions.Fraction`, which keeps
values gcd-reduced with a positive denominator, so all comparisons and
equality tests downstream are exact. The per-entry loops work on integer
rows instead: :func:`integer_row` scales a rational row to integers, and
:func:`column_sums` forms the column sums of such rows weighted by an
integer coefficient row, for certification. A :class:`Matrix` is its integer
rows: each row is held as ``(scale, ints)`` in lowest terms, and the
``Fraction`` grid ``entries`` is derived from them on first read. A
distribution is such a matrix too, of two rows, its atoms and its weights,
and so is a piecewise-linear function, of its knots' x and y values,
and every row built in the package goes through its class's checks in
``Matrix._checked``, unless its construction already guarantees them.
This module alone turns rational text into those rows, and rows back into
text, each without a ``Fraction``: :func:`row_text` writes a row, and
:func:`parse_row`, its inverse, reads plain ``"a/b"`` and ``"a"`` text
with ``int``, and any other text with ``Fraction``'s own parser, so there
is one grammar. A row of at least ``ROW_PASS_MIN`` values, all
plain and over at most one denominator text, is joined into one text and
read in a few steps over the whole of it: one ``replace`` drops the
denominator, one ``split`` and one ``map(int, ...)`` read the numerators.
From that length on this costs less than reading each value on its own;
any other row is read one value at a time, with the same values and errors. Elimination is
fraction-free on the same rows: one kernel takes the columns in order and
finds each that depends on the earlier ones. Its one caller is the decomposition's basis state, which takes every
column's dependency from one pass: the split and the uniqueness probe read
the first dependency and the count of independent columns, the rank, and
the peel keeps the dependencies as its support shrinks. Each dependency
depends on the matrix alone, never on a pivot choice, so every result is
deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

MAX_DIGITS = 4300
"""Most digits in one integer of a rational string, and the largest decimal
exponent, that :func:`parse_rational` accepts. It is CPython's default limit
on int-string conversion, so parsing never builds an integer of more than
about twice that many digits, whatever exponent the text names."""


def _check_size(text: str) -> None:
    # Only text with an exponent, or longer than MAX_DIGITS, can exceed a limit.
    # Digits are any that Fraction's \d reads, not only ASCII ones.
    if "e" in text or "E" in text:
        exponent = re.search(r"[eE]([+-]?[\d_]+)\s*$", text)
        if exponent is not None:
            unsigned = exponent.group(1).lstrip("+-").replace("_", "")
            digits = "".join(str(int(c)) for c in unsigned).lstrip("0") or "0"
            if len(digits) > len(str(MAX_DIGITS)) or int(digits) > MAX_DIGITS:
                raise ValueError(f"exponent beyond {MAX_DIGITS} in rational {text[:40]!r}")
            text = text[: exponent.start()]
    if len(text) > MAX_DIGITS and any(
        len(run.replace("_", "")) > MAX_DIGITS for run in re.findall(r"[\d_]+", text)
    ):
        raise ValueError(f"more than {MAX_DIGITS} digits in rational {text[:40]!r}")


_RATIONAL_TYPES = frozenset((Fraction, int))


def rationals(values):
    """``values`` itself when each is a ``Fraction`` or an ``int`` that is not a
    ``bool``, else a ``ValueError``; the common case costs one type test each."""
    for x in values:
        if type(x) not in _RATIONAL_TYPES and (isinstance(x, bool) or not isinstance(x, (Fraction, int))):
            raise ValueError(f"not a rational: {repr(x)[:40]}")
    return values


def _ratio(value) -> tuple[int, int]:
    """``(p, q)`` in lowest terms with ``q > 0`` and ``parse_rational(value) == p / q``.

    Text of the plain form ``-?D+`` or ``-?D+/D+`` with a nonzero denominator,
    where D is a decimal digit (``str.isdecimal``, which is what both ``int``
    and ``Fraction``'s ``\\d`` read), no longer than ``MAX_DIGITS``, is split at
    the slash, read with ``int`` and divided by its gcd. Any other text goes
    through ``Fraction(str)`` behind the size check, so the grammar, the
    values and the error messages are ``Fraction``'s.
    """
    if isinstance(value, str):
        if len(value) <= MAX_DIGITS:
            num, slash, den = value.partition("/")
            if (num[1:] if num[:1] == "-" else num).isdecimal() and (not slash or den.isdecimal()):
                p, q = int(num), int(den) if slash else 1
                if q:
                    g = gcd(p, q)
                    return (p, q) if g == 1 else (p // g, q // g)
        _check_size(value)
        try:
            parsed = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value[:40]!r}") from exc
        return parsed.numerator, parsed.denominator
    rationals((value,))
    return value.numerator, value.denominator


def parse_rational(value: str | int | Fraction) -> Fraction:
    """Parse ``"a/b"``, a bare integer, or a finite decimal string exactly.

    The grammar is ``Fraction(str)``'s. Floats are rejected: they carry
    binary rounding and would silently break the exactness guarantees. So is
    text with an integer of more than ``MAX_DIGITS`` digits or an exponent
    beyond ``MAX_DIGITS``, whose exact value would cost unbounded time and
    memory to build.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))


def json_list(value, name: str) -> list:
    """``value`` itself when it is a JSON list, else a ``ValueError`` naming ``name``.

    A string or an object is iterable as well, so read where a list belongs
    it would be taken one character or one key at a time.
    """
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, not {type(value).__name__}")
    return value


def json_object(value, name: str, keys) -> dict:
    """``value`` itself when it is a JSON object with all of ``keys``, else a ``ValueError``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object")
    for key in keys:
        if key not in value:
            raise ValueError(f"{name} needs {key!r}")
    return value


def canonical_row(scale: int, ints: list[int]) -> tuple[int, list[int]]:
    """The row ``ints / scale``, for ``scale > 0``, in lowest terms.

    Dividing by ``gcd(scale, *ints)`` leaves the one ``(scale, ints)`` of the
    row whose gcd is 1, which is what ``integer_row`` gives for the row's
    reduced entries: ``scale`` is then the lcm of their denominators.
    """
    g = gcd(scale, *ints)
    if g == 1:
        return scale, ints
    return scale // g, [x // g for x in ints]


def integer_row(values) -> tuple[int, list[int]]:
    """``(scale, ints)`` with ``values[j] == ints[j] / scale``.

    ``scale`` is the lcm of the denominators, so it is positive and every
    ``ints[j]`` is an integer; comparisons and sums of the row are then done
    on ints against ``scale``. For ``Fraction`` or ``int`` values, which are
    in lowest terms, the row is in lowest terms too.
    """
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


ROW_PASS_MIN = 20
"""Fewest values in a row that :func:`parse_row` reads in whole-row passes.

The passes cost several microseconds per row whatever its length, and less
per value than the per-value reader on a row whose values share one
denominator text, the only rows that they read; shorter rows are read one
value at a time."""


def parse_row(values) -> tuple[int, list[int]]:
    """``integer_row`` of the parsed ``values``, made without a ``Fraction``.

    Each value is read as :func:`parse_rational` reads it, as a numerator and
    a denominator in lowest terms, and the row is scaled by the lcm of the
    denominators, so it is in lowest terms too. A gcd over the scaled row
    would do the same at a large cost when the row has many distinct large
    denominators: its first terms share most of the scale, so each step of
    that gcd works on numbers about as long as the scale. A row of at least
    ``ROW_PASS_MIN`` values, all plain text whose slashed values share one
    denominator text, is read from one joined text in whole-row steps
    (:func:`_plain_row`); any other row one value at a time with
    :func:`_ratio`, which gives the same row, or the error of the first
    value that it refuses. ``values`` may be
    any iterable but text or bytes, which are refused with a ``ValueError``:
    read as a row, they would be taken one character or one byte at a time.
    A knot's x and y columns are read here as well, as the two rows of a
    :class:`PiecewiseLinearFn`. :func:`row_text` is the inverse.
    """
    if isinstance(values, (str, bytes, bytearray)):
        raise ValueError(f"not a row of rationals: {values[:40]!r}")
    values = tuple(values)
    if len(values) >= ROW_PASS_MIN:
        row = _plain_row(values)
        if row is not None:
            return row
    ratios = [_ratio(x) for x in values]
    scale = lcm(*(q for _, q in ratios))
    return scale, [p * (scale // q) for p, q in ratios]


def row_text(scale: int, ints) -> list[str]:
    """``[str(Fraction(x, scale)) for x in ints]`` for ``scale > 0``, without a ``Fraction``.

    The inverse of :func:`parse_row`: each value is reduced by its own gcd
    with ``scale``, so ``ints`` need not be in lowest terms, and a value
    whose reduced denominator is 1 is written bare. One ``gcd`` call per
    value in the comprehension costs less than a ``map`` over the row on the
    short rows that most outputs hold.
    """
    return [str(x // g) if (g := gcd(x, scale)) == scale else f"{x // g}/{scale // g}" for x in ints]


_INT_SPACES = "\t\n\x0b\x0c\r"
"""The ASCII whitespace that ``int`` reads around a number, but for the space."""


def _plain_row(values) -> tuple[int, list[int]] | None:
    """``parse_row(values)`` when the values are plain text over one denominator, else ``None``.

    Plain is ``[+-]?D+`` or ``[+-]?D+/D+``, D a decimal digit, with a nonzero
    denominator and at most ``MAX_DIGITS`` characters, which ``Fraction``
    reads as ``int`` does. The values are read in four steps over the whole
    row: one ``" ".join``, one ``replace`` of ``"/D "`` by ``" "``, where D
    is the text after the first slash (a row of bare integers has D = 1),
    one ``split`` and one ``map(int, ...)``. Each bare integer is put over
    D, and the row ``(D, ps)`` is reduced by ``canonical_row``: that is its
    lowest-terms form, since the lcm of the reduced denominators
    ``D / gcd(D, p_i)`` is ``D / gcd(D, p_1, ..., p_k)``. Any row that these
    steps could read otherwise than the per-value reader is left to it: a
    row with a value that is not text, or with a space, underscore or other
    whitespace in a value, and a row over two or more denominator texts.
    """
    try:
        text = " ".join(values)
    except TypeError:  # a value that is not text
        return None
    # int reads underscores, and whitespace around a numerator, that
    # Fraction reads only on some versions. Of the whitespace that int reads,
    # the separator and _INT_SPACES are ASCII, and the rest is unprintable.
    if "_" in text or (any(c in text for c in _INT_SPACES) if text.isascii() else not text.isprintable()):
        return None
    # D is the text after the first slash; it must be D+ and nonzero.
    slash = text.find("/")
    den = "1" if slash < 0 else text[slash + 1 :].partition(" ")[0]
    if not den.isdecimal() or len(den) > MAX_DIGITS or not (d := int(den)):
        return None
    # Dropping each "/D" leaves the numerators. A value with a space splits in
    # two, and int refuses one that is not [+-]?D+ then, as with another slash.
    joined = text + " "
    over = joined.replace(f"/{den} ", " ")
    nums = over.split(" ")
    nums.pop()
    if len(nums) != len(values) or (len(over) > MAX_DIGITS and max(map(len, nums)) > MAX_DIGITS):
        return None
    try:
        ps = list(map(int, nums))
    except ValueError:
        return None
    # Each "/D" dropped shortened the text by len(D) + 1; a bare "0" is 0 over D too.
    bare = len(values) - (len(joined) - len(over)) // (len(den) + 1)
    if bare > values.count("0") and d != 1:
        ps = [p if "/" in v else p * d for p, v in zip(ps, values)]
    return canonical_row(d, ps)


def column_sums(coefficients, rows) -> tuple[int, list[int]]:
    """``(D, S)`` with ``S[j] / D == sum_i c_i * values_i[j]``.

    ``coefficients`` is an integer row ``(scale, ints)`` of the c_i, with
    ``c_i == ints[i] / scale`` and ``scale > 0``, not necessarily in lowest
    terms, and ``rows[i]`` is ``integer_row(values_i)``. Each row's multiplier
    ``ints[i] / (scale * scale_i)`` is brought to the common denominator
    ``D``, so every column sum is one integer dot product. ``S`` is not
    reduced against ``D``.
    """
    scale, ints = coefficients
    d = lcm(*(s // gcd(c, s) for c, (s, _) in zip(ints, rows)))
    k = [c * d // s for c, (s, _) in zip(ints, rows)]
    return scale * d, [sum(map(mul, k, column)) for column in zip(*(row for _, row in rows))]


class Matrix:
    """Immutable dense matrix of rationals, held as its integer rows.

    Row i is ``(scale, ints)`` with entry (i, j) equal to ``ints[j] / scale``,
    ``scale > 0`` and ``gcd(scale, *ints) == 1``. A row has only one such
    form, so two matrices are equal exactly when their integer rows are.
    ``Matrix(entries)`` takes a grid of ``Fraction`` or ``int`` values, and
    no others, and ``from_rows`` one of rational text; ``entries`` is
    derived on first read.
    """

    def __init__(self, entries) -> None:
        self._set_rows(tuple(integer_row(rationals(tuple(row))) for row in entries))

    def _set_rows(self, rows) -> None:
        """Hold ``rows`` after checking their shape; a subclass adds its checks."""
        if not rows or not rows[0][1]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0][1])
        for _, ints in rows:
            if len(ints) != width:
                raise ValueError("matrix rows have unequal lengths")
        object.__setattr__(self, "_integer_rows", rows)

    @classmethod
    def _trusted(cls, rows) -> "Matrix":
        """The matrix of ``rows``, integer rows in lowest terms, unchecked.

        For callers whose construction already guarantees the shape and
        every invariant of ``cls`` exactly; input goes through the checks.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_integer_rows", rows)
        return self

    @classmethod
    def _checked(cls, rows) -> "Matrix":
        """The matrix of ``rows``, integer rows in lowest terms, through every check of ``cls``."""
        self = object.__new__(cls)
        self._set_rows(rows)
        return self

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        """The matrix of a grid of values that :func:`parse_rational` reads."""
        return cls._checked(tuple(parse_row(row) for row in rows))

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The ``Fraction`` grid, derived from the integer rows on first read."""
        return tuple(tuple(Fraction(x, scale) for x in ints) for scale, ints in self._integer_rows)

    @property
    def rows(self) -> int:
        return len(self._integer_rows)

    @property
    def cols(self) -> int:
        return len(self._integer_rows[0][1])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._integer_rows == other._integer_rows

    def __hash__(self) -> int:
        return hash(tuple((scale, tuple(ints)) for scale, ints in self._integer_rows))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(entries={self.entries!r})"


def _echelon(rows, columns):
    """Fraction-free elimination of ``columns`` of the integer ``rows``, in order.

    Column k is ``[row[k] for row in rows]``; scaling a row changes nothing
    here, so each row may be any integer multiple of a rational one. The
    columns taken so far that are independent of their predecessors form a
    gcd-reduced echelon basis, each vector kept with its integer combination
    of the columns. A new column is reduced against the basis by steps
    ``a * vec - f * basis_vec`` with ``a, f`` divided by their gcd. Yields
    ``None`` for a column that joins the basis. For a column that reduces to
    zero it yields the dependency d, with ``sum_t d[t] * columns[t] == 0``
    over the taken columns: zero after this column, gcd 1 and first nonzero
    entry positive. Columns before the first dependent one are independent,
    so that first dependency is unique up to scale.
    """
    width = len(columns)
    basis: list[tuple[int, list[int], list[int]]] = []  # (pivot row, vector, combination)
    for t, k in enumerate(columns):
        vec = [row[k] for row in rows]
        combo = [0] * width
        combo[t] = 1
        for p, b, u in basis:
            f = vec[p]
            if f:
                a = b[p]
                g = gcd(a, f)
                if g != 1:
                    a //= g
                    f //= g
                vec = [a * x - f * y for x, y in zip(vec, b)]
                combo = [a * x - f * y for x, y in zip(combo, u)]
        pivot = next((i for i, x in enumerate(vec) if x), None)
        if pivot is None:
            g = gcd(*combo)
            if next(x for x in combo if x) < 0:
                g = -g
            yield [x // g for x in combo]
            continue
        g = gcd(*vec, *combo)
        if g != 1:
            vec = [x // g for x in vec]
            combo = [x // g for x in combo]
        basis.append((pivot, vec, combo))
        yield None

