"""Exact rational scalars and dense rational matrices.

Every scalar in the package is a :class:`fractions.Fraction`, which keeps
values gcd-reduced with a positive denominator, so all comparisons and
equality tests downstream are exact. The per-entry loops work on integer
rows instead: :func:`integer_row` scales a rational row to integers, and
:func:`column_sums` forms weighted column sums of such rows for
certification. A :class:`Matrix` owns its integer rows, built on first use
and cached, so each row is converted once however many readers it has.
Elimination is fraction-free on the same rows: one kernel takes the columns
in order and finds each that depends on the earlier ones. :func:`rank`
counts the others; the first dependency gives :func:`null_space_vector`, and
the decomposition's peel reads it directly through
:func:`column_dependency`. That dependency depends on the matrix alone,
never on a pivot choice, so every result is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    if "e" in text or "E" in text:
        exponent = re.search(r"[eE]([+-]?[0-9_]+)\s*$", text)
        if exponent is not None:
            digits = exponent.group(1).lstrip("+-").replace("_", "").lstrip("0") or "0"
            if len(digits) > len(str(MAX_DIGITS)) or int(digits) > MAX_DIGITS:
                raise ValueError(f"exponent beyond {MAX_DIGITS} in rational {text[:40]!r}")
            text = text[: exponent.start()]
    if len(text) > MAX_DIGITS and any(
        len(run.replace("_", "")) > MAX_DIGITS for run in re.findall(r"[0-9_]+", text)
    ):
        raise ValueError(f"more than {MAX_DIGITS} digits in rational {text[:40]!r}")


def parse_rational(value: str | int | Fraction) -> Fraction:
    """Parse ``"a/b"``, a bare integer, or a finite decimal string exactly.

    Floats are rejected: they carry binary rounding and would silently break
    the exactness guarantees. So is text with an integer of more than
    ``MAX_DIGITS`` digits or an exponent beyond ``MAX_DIGITS``, whose exact
    value would cost unbounded time and memory to build.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        _check_size(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value[:40]!r}") from exc
    raise ValueError(f"not a rational: {repr(value)[:40]}")


def integer_row(values) -> tuple[int, list[int]]:
    """``(scale, ints)`` with ``values[j] == ints[j] / scale``.

    ``scale`` is the lcm of the denominators, so it is positive and every
    ``ints[j]`` is an integer; comparisons and sums of the row are then done
    on ints against ``scale``.
    """
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def column_sums(coefficients, rows) -> tuple[int, list[int]]:
    """``(D, S)`` with ``S[j] / D == sum_i coefficients[i] * values_i[j]``.

    ``rows[i]`` is ``integer_row(values_i)``, a ``(scale, ints)`` pair. Each
    row's multiplier ``coefficients[i] / scale`` is brought to the common
    denominator ``D``, so every column sum is one integer dot product. ``S``
    is not reduced against ``D``.
    """
    ts = [Fraction(c, scale) for c, (scale, _) in zip(coefficients, rows)]
    d = lcm(*(t.denominator for t in ts))
    k = [t.numerator * (d // t.denominator) for t in ts]
    return d, [sum(map(mul, k, column)) for column in zip(*(ints for _, ints in rows))]


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of rationals, row-major."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("matrix rows have unequal lengths")

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        grid = []
        for row in rows:
            grid.append(tuple(parse_rational(x) for x in row))
        return cls(tuple(grid))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    @cached_property
    def _integer_rows(self) -> tuple[tuple[int, list[int]], ...]:
        """Each row as ``integer_row``'s ``(scale, ints)``, built on first use."""
        return tuple(integer_row(row) for row in self.entries)


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


def column_dependency(rows, columns) -> list[int] | None:
    """The first of ``columns`` that depends on the earlier ones, as a dependency.

    ``rows`` are integer rows and ``columns`` column indices into them. The
    result is the integer vector d over ``columns`` that :func:`_echelon`
    yields at the first dependent column, or ``None`` when the columns are
    linearly independent.
    """
    return next((d for d in _echelon(rows, columns) if d is not None), None)


def rank(matrix: Matrix) -> int:
    """Exact rank."""
    rows = [ints for _, ints in matrix._integer_rows]
    return sum(d is None for d in _echelon(rows, range(matrix.cols)))


def null_space_vector(matrix: Matrix) -> tuple[Fraction, ...] | None:
    """One exact kernel vector, or ``None`` when the columns are independent.

    The returned vector c satisfies ``M @ c == 0`` with c nonzero, and is
    normalized so its first nonzero entry equals 1. It is the dependency of
    the first column that depends on the earlier ones, with zeros after that
    column, so equal matrices always yield the identical vector.
    """
    d = column_dependency([ints for _, ints in matrix._integer_rows], range(matrix.cols))
    if d is None:
        return None
    lead = next(x for x in d if x)
    return tuple(Fraction(x, lead) for x in d)
