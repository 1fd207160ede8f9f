"""The exact simplex as it was over ``Fraction`` rows: a test-only reference.

``mpcmix.lp`` pivots on integer rows. This is the earlier tableau, kept
unchanged so tests can require the integer version to return the same
``LPOutcome`` (status, solution, value and pivot count) on the same LP: the
same Bland's-rule pivots, done in rational arithmetic.
"""

from fractions import Fraction

from mpcmix.errors import InternalError
from mpcmix.lp import LPOutcome, StandardFormLP


class _Tableau:
    def __init__(self, lp: StandardFormLP):
        n = len(lp.objective)
        m = lp.constraint_matrix.rows
        zero, one = Fraction(0), Fraction(1)
        n_slack = sum(1 for s in lp.senses if s != "eq")
        width = n + n_slack
        rows: list[list[Fraction]] = []
        slack_of: list[int | None] = [None] * m
        k = 0
        for i in range(m):
            row = list(lp.constraint_matrix.entries[i]) + [zero] * n_slack
            if lp.senses[i] != "eq":
                row[n + k] = one if lp.senses[i] == "le" else -one
                slack_of[i] = n + k
                k += 1
            rows.append(row)
        rhs = list(lp.rhs)
        for i in range(m):
            if rhs[i] < 0:
                rows[i] = [-x for x in rows[i]]
                rhs[i] = -rhs[i]
        basis: list[int] = []
        n_artificial = 0
        for i in range(m):
            s = slack_of[i]
            if s is not None and rows[i][s] == 1:
                basis.append(s)
            else:
                col = width + n_artificial
                for r in range(m):
                    rows[r].append(one if r == i else zero)
                basis.append(col)
                n_artificial += 1
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.n_original = n
        self.objective = lp.objective
        self.first_artificial = width
        self.n_artificial = n_artificial
        self.pivots = 0

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def _pivot(self, r: int, s: int, d: list[Fraction] | None) -> None:
        pivot = self.rows[r][s]
        inv = 1 / pivot
        row_r = [x * inv for x in self.rows[r]]
        self.rows[r] = row_r
        self.rhs[r] *= inv
        for r2 in range(len(self.rows)):
            if r2 == r:
                continue
            f = self.rows[r2][s]
            if f != 0:
                self.rows[r2] = [x - f * y for x, y in zip(self.rows[r2], row_r)]
                self.rhs[r2] -= f * self.rhs[r]
        if d is not None and d[s] != 0:
            f = d[s]
            for j in range(len(d)):
                d[j] -= f * row_r[j]
        self.basis[r] = s
        self.pivots += 1

    def _run(self, costs: list[Fraction]) -> str:
        """Bland simplex on the current basis; costs has one entry per column."""
        d = list(costs)
        for r, b in enumerate(self.basis):
            cb = costs[b]
            if cb != 0:
                row = self.rows[r]
                for j in range(len(d)):
                    d[j] -= cb * row[j]
        while True:
            enter = next((j for j in range(len(d)) if d[j] > 0), None)
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for r in range(len(self.rows)):
                a = self.rows[r][enter]
                if a > 0:
                    ratio = self.rhs[r] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leave])
                    ):
                        best = ratio
                        leave = r
            if leave is None:
                return "unbounded"
            self._pivot(leave, enter, d)

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
            self._pivot(r, s, None)
            keep.append(r)
        self.rows = [self.rows[r][:fa] for r in keep]
        self.rhs = [self.rhs[r] for r in keep]
        self.basis = [self.basis[r] for r in keep]

    def solve(self) -> LPOutcome:
        if self.n_artificial:
            costs = [Fraction(0)] * self.width
            for j in range(self.first_artificial, self.width):
                costs[j] = Fraction(-1)
            status = self._run(costs)
            if status != "optimal":  # the phase-1 objective is bounded above by 0
                raise InternalError("phase 1 reported unbounded")
            infeasibility = sum(
                self.rhs[r]
                for r in range(len(self.rows))
                if self.basis[r] >= self.first_artificial
            )
            if infeasibility != 0:
                return LPOutcome("infeasible", pivots=self.pivots)
            self._expel_artificials()
        costs = list(self.objective) + [Fraction(0)] * (self.width - self.n_original)
        status = self._run(costs)
        if status == "unbounded":
            return LPOutcome("unbounded", pivots=self.pivots)
        x = [Fraction(0)] * max(self.width, self.n_original)
        for r, b in enumerate(self.basis):
            x[b] = self.rhs[r]
        solution = tuple(x[: self.n_original])
        value = sum(c * v for c, v in zip(self.objective, solution))
        return LPOutcome("optimal", solution, value, self.pivots)


def reference_solve(lp: StandardFormLP) -> LPOutcome:
    return _Tableau(lp).solve()
