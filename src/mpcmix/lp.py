"""Exact linear programming: dense two-phase simplex with Bland's rule.

Problems are stated as: maximize c @ x subject to A x (<=, =, >=) b and
x >= 0, everything rational. Bland's pivoting (lowest eligible index in and
out) guarantees termination under the heavy degeneracy these feasibility
systems produce, and exact arithmetic makes the reported optimum a certificate
rather than an approximation. The tableau holds integer rows and pivots
without fractions (see ``_Tableau``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

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


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(values) -> list[int]:
    """A positive integer multiple of a rational row, with content 1."""
    scale = lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (scale // v.denominator) for v in values])


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
    """

    def __init__(self, lp: StandardFormLP):
        n = len(lp.objective)
        m = lp.constraint_matrix.rows
        n_slack = sum(1 for s in lp.senses if s != "eq")
        width = n + n_slack
        rows: list[list[Fraction | int]] = []
        slack_of: list[int | None] = [None] * m
        k = 0
        for i in range(m):
            row = list(lp.constraint_matrix.entries[i]) + [0] * n_slack + [lp.rhs[i]]
            if lp.senses[i] != "eq":
                row[n + k] = 1 if lp.senses[i] == "le" else -1
                slack_of[i] = n + k
                k += 1
            if lp.rhs[i] < 0:
                row = [-x for x in row]
            rows.append(row)
        basis: list[int] = []
        n_artificial = 0
        for i in range(m):
            s = slack_of[i]
            if s is not None and rows[i][s] == 1:
                basis.append(s)
            else:
                basis.append(width + n_artificial)
                n_artificial += 1
        for i in range(m):
            # An artificial column is 1 in its own row before scaling, as in
            # the rational phase-1 program.
            extra = [0] * n_artificial
            if basis[i] >= width:
                extra[basis[i] - width] = 1
            rows[i] = _integer_row(rows[i][:-1] + extra + rows[i][-1:])
        self.rows = rows
        self.basis = basis
        self.n_original = n
        self.objective = lp.objective
        self.first_artificial = width
        self.n_artificial = n_artificial
        self.pivots = 0

    @property
    def width(self) -> int:
        return len(self.rows[0]) - 1 if self.rows else 0

    def _pivot(self, r: int, s: int) -> None:
        rows = self.rows
        row_r = rows[r]
        a = row_r[s]
        if a < 0:  # only when expelling an artificial; keep the basic coefficient positive
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

    def solve(self) -> LPOutcome:
        fa = self.first_artificial
        if self.n_artificial:
            status = self._run([0] * fa + [-1] * self.n_artificial)
            if status != "optimal":  # the phase-1 objective is bounded above by 0
                raise InternalError("phase 1 reported unbounded")
            # Every basic value is nonnegative, so the artificials' sum is
            # zero exactly when each of them is.
            if any(row[-1] for row, b in zip(self.rows, self.basis) if b >= fa):
                return LPOutcome("infeasible", pivots=self.pivots)
            self._expel_artificials()
        costs = _integer_row(self.objective) + [0] * (self.width - self.n_original)
        status = self._run(costs)
        if status == "unbounded":
            return LPOutcome("unbounded", pivots=self.pivots)
        x = [Fraction(0)] * max(self.width, self.n_original)
        for row, b in zip(self.rows, self.basis):
            x[b] = Fraction(row[-1], row[b])
        solution = tuple(x[: self.n_original])
        value = sum(c * v for c, v in zip(self.objective, solution))
        return LPOutcome("optimal", solution, value, self.pivots)


def solve(lp: StandardFormLP) -> LPOutcome:
    """Exact optimum, or infeasible/unbounded status."""
    return _Tableau(lp).solve()


def solve_garbling(
    n: int, width: int, column_rows, objective=None
) -> tuple[LPOutcome, tuple[tuple[Fraction, ...], ...] | None]:
    """Solve an exact LP over the entries F[i][j] >= 0 of an n x width garbling.

    Every row of F sums to 1, and each ``(j, coefficients, rhs)`` in
    ``column_rows`` adds the equation sum_i coefficients[i] * F[i][j] == rhs.
    ``objective`` holds one coefficient per entry in row-major order; without
    it the program is a feasibility problem. Returns the outcome and, when it
    is optimal, F as a tuple of rows.
    """
    zero, one = Fraction(0), Fraction(1)
    nvars = n * width
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        row = [zero] * nvars
        row[i * width : (i + 1) * width] = [one] * width
        rows.append(row)
        rhs.append(one)
    for j, coefficients, b in column_rows:
        row = [zero] * nvars
        row[j::width] = coefficients
        rows.append(row)
        rhs.append(b)
    outcome = solve(
        StandardFormLP(
            objective=tuple(objective) if objective is not None else (zero,) * nvars,
            constraint_matrix=Matrix(tuple(tuple(r) for r in rows)),
            rhs=tuple(rhs),
            senses=("eq",) * len(rows),
        )
    )
    if outcome.status != "optimal":
        return outcome, None
    return outcome, tuple(outcome.solution[i * width : (i + 1) * width] for i in range(n))


def find_witness(
    source: DiscreteDistribution, target: DiscreteDistribution
) -> TransitionMatrix | None:
    """A garbling matrix certifying the contraction, or None when none exists.

    Phrases the defining identities directly as a feasibility program over the
    matrix entries: each row sums to 1, each column reproduces the target
    weight and the target barycenter. Witnesses are not unique; whichever
    basic solution the simplex lands on is returned after exact revalidation.
    """
    p, q, b = source.weights, target.weights, target.atoms
    moments = tuple(w * x for w, x in zip(p, source.atoms))
    m = len(q)
    _, grid = solve_garbling(
        len(p), m, [(j, p, q[j]) for j in range(m)] + [(j, moments, q[j] * b[j]) for j in range(m)]
    )
    if grid is None:
        return None
    witness = TransitionMatrix(Matrix(grid))
    SmpcTriple(source, witness, target)  # exact revalidation of both identities
    return witness
