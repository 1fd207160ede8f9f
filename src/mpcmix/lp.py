"""Exact linear programming: a dense simplex with Bland's rule, started from a feasible basis.

Problems are stated as: maximize c @ x subject to A x (<=, =) b and x >= 0,
everything rational: A is a ``Matrix``, and c and b are integer rows
``(scale, ints)``, as a ``Matrix`` row is. The caller names a feasible
basis as ``start``, one column per row: each is pivoted into its row in row
order, on a positive pivot entry, the basis is checked to sit at a
nonnegative level, and the simplex runs from it. Bland's pivoting (lowest
eligible index in and out) guarantees termination under degeneracy, and
exact arithmetic makes the reported optimum a certificate rather than an
approximation. The tableau holds integer rows and pivots without fractions,
and its reduced costs are one more row that every pivot updates (see
``_Tableau``). Persuasion states its LP over the target's weights on a
candidate grid and starts it on the prior's atom columns (see
``persuasion._solve_on_grid``, the one caller, which both
``solve_linear_persuasion`` and ``check_no_profitable_deviation`` reach);
garblings, and witnesses for the contraction order, come from
``distributions.find_witness`` with no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DimensionError, InternalError
from .linalg import Matrix

SENSES = ("le", "eq")


@dataclass(frozen=True)
class StandardFormLP:
    """maximize objective @ x  s.t.  A x (senses) rhs,  x >= 0.

    ``objective`` and ``rhs`` are integer rows ``(scale, ints)``, not
    necessarily in lowest terms: entry j is ``ints[j] / scale``, for an
    ``int`` scale above 0 and ``int`` entries.
    """

    objective: tuple[int, list[int]]
    constraint_matrix: Matrix
    rhs: tuple[int, list[int]]
    senses: tuple[str, ...]

    def __post_init__(self) -> None:
        m, n = self.constraint_matrix.rows, self.constraint_matrix.cols
        for name, row in (("objective", self.objective), ("rhs", self.rhs)):
            if not (isinstance(row, tuple) and len(row) == 2 and isinstance(row[1], (list, tuple))):
                raise ValueError(f"{name} must be an integer row (scale, ints)")
            scale, ints = row
            if type(scale) is not int or scale <= 0:
                raise ValueError(f"{name} scale must be a positive int")
            if not {int}.issuperset(map(type, ints)):
                raise ValueError(f"{name} entries must be ints")
        if len(self.objective[1]) != n:
            raise DimensionError("objective length does not match variable count")
        if len(self.rhs[1]) != m or len(self.senses) != m:
            raise DimensionError("rhs/senses length does not match row count")
        for s in self.senses:
            if s not in SENSES:
                raise ValueError(f"unknown sense {s!r}")


@dataclass(frozen=True)
class LPOutcome:
    status: str  # "optimal" | "unbounded"
    solution: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    pivots: int = 0


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class _Tableau:
    """Bland's-rule simplex tableau kept in integer rows.

    The columns are the LP's variables, then one slack per ``le`` row in row
    order. Row r holds the equation ``rows[r][:-1] @ x == rows[r][-1]``. Its
    basic column ``basis[r]`` has a positive coefficient there and zero in
    every other row, so the row is a positive multiple of the rational
    tableau row with a 1 in that column, and x_B = rhs / coefficient.
    ``costs`` is one more row, the reduced costs, with no rhs entry: it
    starts as the objective's integer row, 0 on every slack, and every
    pivot updates it as it updates the other rows. Pivots are
    fraction-free: a row becomes a·row − f·pivot_row, divided by its
    content gcd. Every pivot is on a positive entry, so ``costs`` is
    c − c_B B⁻¹A times a positive scale that is not kept, and only its
    signs are read. Every pivot choice matches the one a rational tableau
    makes, so the pivot sequence, and the outcome, are the same.

    No column is basic at first: ``_start`` pivots one column into each row,
    and every pivot, forced or chosen, is on a positive entry. The value
    sums over the basic columns only.
    """

    def __init__(self, lp: StandardFormLP):
        n = len(lp.objective[1])
        zeros = [0] * lp.senses.count("le")
        rows: list[list[int]] = []
        slack = n
        b_scale, b = lp.rhs
        for (scale, ints), rhs, sense in zip(lp.constraint_matrix._integer_rows, b, lp.senses):
            # The row of A, its slack and its rhs, times both scales.
            row = [b_scale * x for x in ints] + zeros + [scale * rhs]
            if sense == "le":
                row[slack] = scale * b_scale
                slack += 1
            rows.append(_reduced(row))
        self.rows = rows
        self.basis: list[int | None] = [None] * len(rows)
        self.n_original = n
        self.objective = lp.objective
        self.costs = _reduced([*lp.objective[1], *zeros])
        self.pivots = 0

    def _pivot(self, r: int, s: int) -> None:
        rows = self.rows
        row_r = rows[r]
        a = row_r[s]
        for r2, row in enumerate(rows):
            f = row[s]
            if f and r2 != r:
                rows[r2] = _reduced([a * x - f * y for x, y in zip(row, row_r)])
        # zip stops at the end of the cost row, before the rhs.
        f = self.costs[s]
        if f:
            self.costs = _reduced([a * x - f * y for x, y in zip(self.costs, row_r)])
        self.basis[r] = s
        self.pivots += 1

    def _run(self) -> str:
        """Bland simplex from the current basis, entering on the first positive reduced cost."""
        while True:
            enter = next((j for j, v in enumerate(self.costs) if v > 0), None)
            if enter is None:
                return "optimal"
            leave = None
            for r, row in enumerate(self.rows):
                a = row[enter]
                if a <= 0:
                    continue
                if leave is not None:
                    # rhs / a against the best ratio so far, cross-multiplied.
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if lhs > rhs or (lhs == rhs and self.basis[r] > self.basis[leave]):
                        continue
                leave, best_rhs, best_a = r, row[-1], a
            if leave is None:
                return "unbounded"
            self._pivot(leave, enter)

    def _start(self, columns) -> None:
        """Pivot ``columns[r]`` into row r, in row order, and check the basis feasible."""
        if len(columns) != len(self.rows):
            raise InternalError(f"starting basis has length {len(columns)}, not the row count {len(self.rows)}")
        for r, s in enumerate(columns):
            # A column already basic in an earlier row is 0 here.
            if self.rows[r][s] <= 0:
                raise InternalError(f"starting pivot ({r}, {s}) is not positive")
            self._pivot(r, s)
        # x_B = rhs / coefficient, and every basic coefficient is positive.
        for r, row in enumerate(self.rows):
            if row[-1] < 0:
                raise InternalError(f"starting basis has a negative level at row {r}")

    def solve(self, start) -> LPOutcome:
        self._start(start)
        if self._run() == "unbounded":
            return LPOutcome("unbounded", pivots=self.pivots)
        scale, objective = self.objective
        n = self.n_original
        x = [Fraction(0)] * n
        num, den = 0, 1  # the value, num / (den * scale)
        for row, b in zip(self.rows, self.basis):
            if b < n:
                x[b] = level = Fraction(row[-1], row[b])
                p, q = level.numerator, level.denominator
                num, den = num * q + objective[b] * p * den, den * q
        return LPOutcome("optimal", tuple(x), Fraction(num, den * scale), self.pivots)


def solve(lp: StandardFormLP, *, start) -> LPOutcome:
    """Exact optimum, or unbounded status, from the feasible basis ``start``.

    ``start`` holds the basic column of each row, pivoted in row order; a
    column past the LP's variables is the slack of the ``le`` rows in order.
    The solution and value are the only ``Fraction`` values made.
    A start whose length is not the row count, a pivot entry that is not
    positive when its turn comes or a negative basic level is an
    ``InternalError``.
    """
    return _Tableau(lp).solve(start)
