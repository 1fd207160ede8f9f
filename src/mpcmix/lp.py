"""Exact linear programming: dense two-phase simplex with Bland's rule.

Problems are stated as: maximize c @ x subject to A x (<=, =, >=) b and
x >= 0, everything rational. Bland's pivoting (lowest eligible index in and
out) guarantees termination under the heavy degeneracy these feasibility
systems produce, and exact arithmetic makes the reported optimum a certificate
rather than an approximation. The tableau holds integer rows and pivots
without fractions (see ``_Tableau``). A caller that knows a feasible basis
can hand it to ``solve`` as ``start``: its pivots are forced, the basis is
checked to be feasible, and phase 2 runs from it with no phase 1.
Persuasion states its LP over the target's weights on a candidate grid and
starts it at full disclosure (see ``persuasion.solve_linear_persuasion``);
garblings, and witnesses for the contraction order, come from
``distributions.find_witness`` with no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionError, InternalError
from .linalg import Matrix, integer_row

SENSES = ("le", "ge", "eq")


@dataclass(frozen=True)
class StandardFormLP:
    """maximize objective @ x  s.t.  A x (senses) rhs,  x >= 0."""

    objective: tuple[Fraction, ...]
    constraint_matrix: Matrix
    rhs: tuple[Fraction, ...]
    senses: tuple[str, ...]

    def __post_init__(self) -> None:
        m, n = self.constraint_matrix.rows, self.constraint_matrix.cols
        if len(self.objective) != n:
            raise DimensionError("objective length does not match variable count")
        if len(self.rhs) != m or len(self.senses) != m:
            raise DimensionError("rhs/senses length does not match row count")
        for s in self.senses:
            if s not in SENSES:
                raise ValueError(f"unknown sense {s!r}")


@dataclass(frozen=True)
class LPOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    solution: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    pivots: int = 0


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


class _Tableau:
    """Bland's-rule simplex tableau kept in integer rows.

    Row r holds the equation ``rows[r][:-1] @ x == rows[r][-1]``. Its basic
    column ``basis[r]`` has a positive coefficient there and zero in every
    other row, so the row is a positive multiple of the rational tableau row
    with a 1 in that column, and x_B = rhs / coefficient. Pivots are
    fraction-free: a row becomes a·row − f·pivot_row, divided by its content
    gcd. The reduced costs are an integer row with an implicit positive scale,
    so only their signs are read. Every pivot choice matches the one a
    rational tableau makes, so the pivot sequence, and the outcome, are the
    same.

    ``solve`` runs phase 1 from the slack and artificial basis, or, given a
    start, pivots that start's pairs in and checks it instead: every forced
    pivot entry is nonzero, every basic level is nonnegative and every
    artificial still basic sits at level 0. Phase 2 then runs once, from
    that feasible basis with the artificial columns cut.
    """

    def __init__(self, lp: StandardFormLP):
        n = len(lp.objective)
        n_slack = sum(1 for s in lp.senses if s != "eq")
        # A row starts on its slack when the slack's coefficient is positive
        # after the rhs sign flip, and on an artificial column of its own
        # otherwise.
        on_artificial = [s == "eq" or (s == "le") == (b < 0) for b, s in zip(lp.rhs, lp.senses)]
        n_artificial = sum(on_artificial)
        zeros = [0] * (n_slack + n_artificial)
        rows: list[list[int]] = []
        basis: list[int] = []
        slack, artificial = n, n + n_slack
        for (scale, ints), rhs, sense, starts_on_artificial in zip(
            lp.constraint_matrix._integer_rows, lp.rhs, lp.senses, on_artificial
        ):
            # The row of A, its slack, its artificial and its rhs, times the
            # lcm of their denominators and negated where the rhs is negative.
            # An artificial column is 1 in its own row before scaling, as in
            # the rational phase-1 program.
            mult = lcm(scale, rhs.denominator)
            sign = -1 if rhs < 0 else 1
            f = sign * (mult // scale)
            row = [f * x for x in ints] + zeros + [sign * rhs.numerator * (mult // rhs.denominator)]
            if sense != "eq":
                row[slack] = -mult if starts_on_artificial else mult
                slack += 1
            if starts_on_artificial:
                row[artificial] = mult
                basis.append(artificial)
                artificial += 1
            else:
                basis.append(slack - 1)
            rows.append(_reduced(row))
        self.rows = rows
        self.basis = basis
        self.n_original = n
        self.objective = lp.objective
        self.first_artificial = n + n_slack
        self.n_artificial = n_artificial
        self.pivots = 0

    def _pivot(self, r: int, s: int) -> None:
        rows = self.rows
        row_r = rows[r]
        a = row_r[s]
        if a < 0:  # a forced pivot, never a ratio-test one; keep the basic coefficient positive
            row_r = rows[r] = [-x for x in row_r]
            a = -a
        for r2, row in enumerate(rows):
            f = row[s]
            if f and r2 != r:
                rows[r2] = _reduced([a * x - f * y for x, y in zip(row, row_r)])
        self.basis[r] = s
        self.pivots += 1

    def _run(self, costs: list[int]) -> str:
        """Bland simplex on the current basis; integer costs, one per column."""
        d = costs
        for row, b in zip(self.rows, self.basis):
            f = d[b]
            if f:
                d = _reduced([row[b] * x - f * y for x, y in zip(d, row)])
        while True:
            enter = next((j for j, v in enumerate(d) if v > 0), None)
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
            row_r = self.rows[leave]
            f = d[enter]
            d = _reduced([row_r[enter] * x - f * y for x, y in zip(d, row_r)])

    def _expel_artificials(self) -> None:
        fa = self.first_artificial
        keep = []
        for r in range(len(self.rows)):
            if self.basis[r] < fa:
                keep.append(r)
                continue
            # Basic artificial at level zero: swap in any structural column,
            # or drop the row entirely when it has become redundant.
            s = next((j for j in range(fa) if self.rows[r][j] != 0), None)
            if s is None:
                continue
            self._pivot(r, s)
            keep.append(r)
        self.rows = [_reduced(self.rows[r][:fa] + self.rows[r][-1:]) for r in keep]
        self.basis = [self.basis[r] for r in keep]

    def _start(self, pairs) -> None:
        """Pivot each ``(row, column)`` pair in, check the basis feasible, cut the artificials."""
        for r, s in pairs:
            if not self.rows[r][s]:
                raise InternalError(f"starting pivot ({r}, {s}) has a zero entry")
            self._pivot(r, s)
        fa = self.first_artificial
        # x_B = rhs / coefficient and every basic coefficient is positive.
        for r, (row, b) in enumerate(zip(self.rows, self.basis)):
            if row[-1] < 0 or (b >= fa and row[-1]):
                raise InternalError(f"starting basis is infeasible at row {r}")
        self._expel_artificials()

    def solve(self, start=None) -> LPOutcome:
        fa = self.first_artificial
        if start is not None:
            self._start(start)
        elif self.n_artificial:
            status = self._run([0] * fa + [-1] * self.n_artificial)
            if status != "optimal":  # the phase-1 objective is bounded above by 0
                raise InternalError("phase 1 reported unbounded")
            # Every basic value is nonnegative, so the artificials' sum is
            # zero exactly when each of them is.
            if any(row[-1] for row, b in zip(self.rows, self.basis) if b >= fa):
                return LPOutcome("infeasible", pivots=self.pivots)
            self._expel_artificials()
        # Phase 2 runs on the first_artificial columns: _expel_artificials
        # has cut the artificial ones, or there were none.
        costs = _reduced(integer_row(self.objective)[1]) + [0] * (fa - self.n_original)
        status = self._run(costs)
        if status == "unbounded":
            return LPOutcome("unbounded", pivots=self.pivots)
        x = [Fraction(0)] * fa
        for row, b in zip(self.rows, self.basis):
            x[b] = Fraction(row[-1], row[b])
        solution = tuple(x[: self.n_original])
        value = sum(c * v for c, v in zip(self.objective, solution))
        return LPOutcome("optimal", solution, value, self.pivots)


def solve(lp: StandardFormLP, *, start=None) -> LPOutcome:
    """Exact optimum, or infeasible/unbounded status.

    ``start``, a sequence of ``(row, column)`` pairs, names a feasible basis
    to begin phase 2 from; the pairs are pivoted in order and the result is
    checked, and a start that is singular or infeasible is an
    ``InternalError``. Without it, phase 1 finds a feasible basis.
    """
    return _Tableau(lp).solve(start)
