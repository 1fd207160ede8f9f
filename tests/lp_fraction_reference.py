"""The exact two-phase simplex over ``Fraction`` rows: a test-only reference.

``mpcmix.lp`` pivots on integer rows of an equality-form LP, from a
feasible basis that its caller names. This is the earlier rational tableau,
kept so tests can require the integer version to reach the same outcome
(solution, value and pivot count) on the same LP and start: the same
Bland's-rule pivots, done in rational arithmetic. Its LPs keep the general
form, ``GeneralLP``, whose rows are ``le`` or ``eq``; ``equality_form``
states one as an ``mpcmix.lp.StandardFormLP`` with one unit slack column
per ``le`` row in row order, and ``general_form`` reads such an LP back with
every row ``eq``. A ``start`` is taken as ``mpcmix.lp.solve`` takes it: one
column per row, each pivoted into its row in row order on an entry that is
positive in the row as stated, then a check that every level is
nonnegative, and phase 2 runs from there. Without a start, phase 1 finds a
feasible basis from the slack and artificial columns, or reports the LP
infeasible, so the tests can solve LPs that have no known vertex.

The LP's objective and rhs are integer rows ``(scale, ints)``. Every test
states its LPs in ``Fraction`` tuples through ``standard_form``, and reads
such a row back with ``fractions_of``. ``real_outcome`` and
``reference_outcome`` put the two solvers' results in the same terms, so
that one comparison covers an optimum, an unbounded column and a bad start.
"""

from dataclasses import dataclass
from fractions import Fraction

from mpcmix.errors import InternalError
from mpcmix.linalg import Matrix, integer_row
from mpcmix.lp import StandardFormLP, solve


@dataclass(frozen=True)
class GeneralLP:
    """maximize objective @ x  s.t.  A x (senses) rhs,  x >= 0, each sense ``le`` or ``eq``.

    ``objective`` and ``rhs`` are integer rows ``(scale, ints)``.
    """

    objective: tuple[int, list[int]]
    constraint_matrix: Matrix
    rhs: tuple[int, list[int]]
    senses: tuple[str, ...]


@dataclass(frozen=True)
class Outcome:
    """``"optimal"`` with the solution over the LP's own columns, its value
    and the pivot count; ``"unbounded"`` at the entering ``column``; or
    ``"infeasible"``."""

    status: str
    solution: tuple[Fraction, ...] | None = None
    value: Fraction | None = None
    pivots: int = 0
    column: int | None = None


def standard_form(objective, rows, rhs, senses) -> GeneralLP:
    """The LP of ``Fraction`` or ``int`` tuples: ``objective`` and ``rhs`` go in
    as their integer rows, and ``rows`` as a ``Matrix`` unless it is one."""
    return GeneralLP(
        objective=integer_row(tuple(objective)),
        constraint_matrix=rows if isinstance(rows, Matrix) else Matrix(tuple(tuple(row) for row in rows)),
        rhs=integer_row(tuple(rhs)),
        senses=tuple(senses),
    )


def equality_form(problem: GeneralLP) -> StandardFormLP:
    """``problem`` with one unit slack column per ``le`` row, in row order, after its own columns."""
    senses = problem.senses
    slacks = [r for r, sense in enumerate(senses) if sense == "le"]
    units = [[Fraction(r == s) for s in slacks] for r in range(len(senses))]
    scale, objective = problem.objective
    return StandardFormLP(
        objective=(scale, [*objective, *[0] * len(slacks)]),
        constraint_matrix=Matrix(tuple((*row, *unit) for row, unit in zip(problem.constraint_matrix.entries, units))),
        rhs=problem.rhs,
    )


def general_form(problem: StandardFormLP) -> GeneralLP:
    """The equality-form ``problem`` as a ``GeneralLP``, every row ``eq``."""
    rows = problem.constraint_matrix.rows
    return GeneralLP(problem.objective, problem.constraint_matrix, problem.rhs, ("eq",) * rows)


def fractions_of(row) -> tuple[Fraction, ...]:
    """The entries of the integer row ``(scale, ints)``."""
    scale, ints = row
    return tuple(Fraction(x, scale) for x in ints)


class _Tableau:
    def __init__(self, lp: GeneralLP):
        n = len(lp.objective[1])
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
                row[n + k] = one
                slack_of[i] = n + k
                k += 1
            rows.append(row)
        rhs = list(fractions_of(lp.rhs))
        # Phase 1 wants every rhs nonnegative; a start's pivot entries are
        # read with the sign of the row as stated.
        self.signs = [-1 if b < 0 else 1 for b in rhs]
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
        self.objective = fractions_of(lp.objective)
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
                self.unbounded_column = enter
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

    def _start(self, columns) -> None:
        if len(columns) != len(self.rows):
            raise InternalError(f"starting basis has length {len(columns)}, not the row count {len(self.rows)}")
        for r, s in enumerate(columns):
            if self.signs[r] * self.rows[r][s] <= 0:
                raise InternalError(f"starting pivot ({r}, {s}) is not positive")
            self._pivot(r, s, None)
        for r in range(len(self.rows)):
            if self.rhs[r] < 0:
                raise InternalError(f"starting basis has a negative level at row {r}")
        # Every row now has a basic column, so no artificial is basic.
        self._expel_artificials()

    def solve(self, start=None) -> Outcome:
        if start is not None:
            self._start(start)
        elif self.n_artificial:
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
                return Outcome("infeasible", pivots=self.pivots)
            self._expel_artificials()
        costs = list(self.objective) + [Fraction(0)] * (self.width - self.n_original)
        status = self._run(costs)
        if status == "unbounded":
            return Outcome("unbounded", pivots=self.pivots, column=self.unbounded_column)
        x = [Fraction(0)] * max(self.width, self.n_original)
        for r, b in enumerate(self.basis):
            x[b] = self.rhs[r]
        solution = tuple(x[: self.n_original])
        value = sum(c * v for c, v in zip(self.objective, solution))
        return Outcome("optimal", solution, value, self.pivots)


def reference_solve(problem: GeneralLP, start=None) -> Outcome:
    return _Tableau(problem).solve(start)


def reference_outcome(problem: GeneralLP, start) -> Outcome | str:
    """``reference_solve`` from ``start``: an optimum as it is, an unbounded
    column as the message of ``mpcmix.lp``'s ``InternalError`` for it, and a
    bad start as its own ``InternalError``'s message."""
    try:
        out = reference_solve(problem, start)
    except InternalError as err:
        return str(err)
    if out.status == "unbounded":
        return f"LP is unbounded along column {out.column}"
    return out


def real_outcome(problem: GeneralLP, start) -> Outcome | str:
    """``mpcmix.lp.solve`` on ``equality_form(problem)`` from ``start``, in the
    reference's terms: an optimum's solution on ``problem``'s own columns,
    as ``Fraction``s, and an ``InternalError`` as its message. The solver is
    the one imported here, so a test's patch of ``mpcmix.lp.solve`` does not
    reach it."""
    try:
        out = solve(equality_form(problem), start=start)
    except InternalError as err:
        return str(err)
    n = len(problem.objective[1])
    return Outcome("optimal", fractions_of(out.solution)[:n], out.value, out.pivots)
