"""Exact linear programming: dense two-phase simplex with Bland's rule.

Problems are stated as: maximize c @ x subject to A x (<=, =, >=) b and
x >= 0, everything rational. Bland's pivoting (lowest eligible index in and
out) guarantees termination under the heavy degeneracy these feasibility
systems produce, and exact arithmetic makes the reported optimum a certificate
rather than an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distributions import DiscreteDistribution, SmpcTriple, TransitionMatrix
from .errors import DimensionError, InternalError
from .linalg import Matrix

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


def solve(lp: StandardFormLP) -> LPOutcome:
    """Exact optimum, or infeasible/unbounded status."""
    return _Tableau(lp).solve()


def find_witness(
    source: DiscreteDistribution, target: DiscreteDistribution
) -> TransitionMatrix | None:
    """A garbling matrix certifying the contraction, or None when none exists.

    Phrases the defining identities directly as a feasibility program over the
    matrix entries: each row sums to 1, each column reproduces the target
    weight and the target barycenter. Witnesses are not unique; whichever
    basic solution the simplex lands on is returned after exact revalidation.
    """
    n, m = len(source.atoms), len(target.atoms)
    p, a = source.weights, source.atoms
    q, b = target.weights, target.atoms
    nvars = n * m
    zero = Fraction(0)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        row = [zero] * nvars
        for j in range(m):
            row[i * m + j] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))
    for j in range(m):
        row = [zero] * nvars
        for i in range(n):
            row[i * m + j] = p[i]
        rows.append(row)
        rhs.append(q[j])
    for j in range(m):
        row = [zero] * nvars
        for i in range(n):
            row[i * m + j] = p[i] * a[i]
        rows.append(row)
        rhs.append(q[j] * b[j])
    lp = StandardFormLP(
        objective=tuple([zero] * nvars),
        constraint_matrix=Matrix(tuple(tuple(r) for r in rows)),
        rhs=tuple(rhs),
        senses=tuple(["eq"] * len(rows)),
    )
    outcome = solve(lp)
    if outcome.status != "optimal":
        return None
    grid = tuple(
        tuple(outcome.solution[i * m + j] for j in range(m)) for i in range(n)
    )
    witness = TransitionMatrix(Matrix(grid))
    SmpcTriple(source, witness, target)  # exact revalidation of both identities
    return witness
