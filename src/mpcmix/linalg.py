"""Exact rational scalars and dense rational matrices.

Every scalar in the package is a :class:`fractions.Fraction`, which keeps
values gcd-reduced with a positive denominator, so all comparisons and
equality tests downstream are exact. Elimination pivots on the first nonzero
entry in row order; numerical stability is a non-issue over the rationals and
this rule makes every result deterministic. Certification and the simplex
work on integer rows instead: :func:`integer_row` scales a rational row to
integers and :func:`column_sums` forms weighted column sums of such rows, so
their per-entry loops do no ``Fraction`` arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


def format_rational(value: Fraction) -> str:
    """Render as ``"a/b"``, or just ``"a"`` when the denominator is 1."""
    return str(value)


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

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)


def _row_echelon(matrix: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Forward elimination; returns (echelon rows, pivot column indices)."""
    rows = [list(r) for r in matrix.entries]
    nrows, ncols = matrix.rows, matrix.cols
    pivot_cols: list[int] = []
    pr = 0
    for c in range(ncols):
        if pr == nrows:
            break
        target = None
        for r in range(pr, nrows):
            if rows[r][c] != 0:
                target = r
                break
        if target is None:
            continue
        if target != pr:
            rows[pr], rows[target] = rows[target], rows[pr]
        pivot = rows[pr][c]
        row_pr = rows[pr]
        for r in range(pr + 1, nrows):
            if rows[r][c] != 0:
                factor = rows[r][c] / pivot
                rows[r] = [x - factor * y if y else x for x, y in zip(rows[r], row_pr)]
        pivot_cols.append(c)
        pr += 1
    return rows, pivot_cols


def rank(matrix: Matrix) -> int:
    """Exact rank."""
    return len(_row_echelon(matrix)[1])


def null_space_vector(matrix: Matrix) -> tuple[Fraction, ...] | None:
    """One exact kernel vector, or ``None`` when the columns are independent.

    The returned vector c satisfies ``M @ c == 0`` with c nonzero, and is
    normalized so its first nonzero entry equals 1. The free variable chosen
    is the lowest-index non-pivot column, so equal matrices always yield the
    identical vector.
    """
    rows, pivot_cols = _row_echelon(matrix)
    ncols = matrix.cols
    pivot_set = set(pivot_cols)
    free = next((c for c in range(ncols) if c not in pivot_set), None)
    if free is None:
        return None
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for k in range(len(pivot_cols) - 1, -1, -1):
        pc = pivot_cols[k]
        row = rows[k]
        acc = sum(
            (row[c] * x[c] for c in range(pc + 1, ncols) if row[c] and x[c]),
            Fraction(0),
        )
        x[pc] = -acc / row[pc]
    lead = next(v for v in x if v != 0)
    return tuple(v / lead for v in x)
