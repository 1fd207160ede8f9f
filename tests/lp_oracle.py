"""Brute-force LP oracle, independent of the simplex implementation.

Converts the program to equality form with its own slack bookkeeping, prunes
redundant rows by Gaussian elimination, then enumerates every basic solution
(one square solve per column subset) and keeps the best nonnegative one.
Sound for feasibility always, and for optimality whenever the feasible set is
bounded, which the random corpus guarantees by including a simplex row.

``oracle_status`` adds the unbounded case by searching the recession cone
the same way. ``solve_garbling`` states an LP over the entries of a garbling
matrix and solves it with the two-phase ``Fraction`` simplex of
``lp_fraction_reference``, as no feasible basis is known in advance. Two
oracles are built on it: ``lp_witness``, the witness search as a feasibility
LP, which checks ``find_witness``'s shadow coupling against an independent
decision; and
``garbling_persuasion_value``, the persuasion LP over the garbling's entries,
which checks the value of ``solve_linear_persuasion``'s LP over target weights.
"""

from fractions import Fraction
from itertools import combinations

from lp_fraction_reference import fractions_of, reference_solve, standard_form
from persuasion_lp_reference import evaluate


def _to_equality_form(lp):
    n_slack = sum(1 for s in lp.senses if s != "eq")
    rows = []
    k = 0
    for i, s in enumerate(lp.senses):
        ext = [Fraction(0)] * n_slack
        if s == "le":
            ext[k] = Fraction(1)
            k += 1
        rows.append(list(lp.constraint_matrix.entries[i]) + ext)
    costs = list(fractions_of(lp.objective)) + [Fraction(0)] * n_slack
    return rows, list(fractions_of(lp.rhs)), costs


def _drop_redundant(rows, rhs):
    """Row-reduce [A | b]; returns the independent rows, or None if inconsistent."""
    ncols = len(rows[0])
    aug = [rows[i][:] + [rhs[i]] for i in range(len(rows))]
    pr = 0
    for c in range(ncols):
        piv = next((r for r in range(pr, len(aug)) if aug[r][c] != 0), None)
        if piv is None:
            continue
        aug[pr], aug[piv] = aug[piv], aug[pr]
        pivot = aug[pr][c]
        for r in range(len(aug)):
            if r != pr and aug[r][c] != 0:
                f = aug[r][c] / pivot
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[pr])]
        pr += 1
    kept_rows, kept_rhs = [], []
    for row in aug:
        if any(x != 0 for x in row[:ncols]):
            kept_rows.append(row[:ncols])
            kept_rhs.append(row[ncols])
        elif row[ncols] != 0:
            return None
    return kept_rows, kept_rhs


def _solve_square(a_rows, b):
    n = len(b)
    m = [a_rows[i][:] + [b[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def oracle_solve(lp):
    """(status, value, solution) by exhaustive basic-feasible-solution search."""
    rows, rhs, costs = _to_equality_form(lp)
    reduced = _drop_redundant(rows, rhs)
    if reduced is None:
        return "infeasible", None, None
    rows, rhs = reduced
    nvars = len(lp.objective[1])
    if not rows:
        return "optimal", Fraction(0), tuple([Fraction(0)] * nvars)
    nrows, ncols = len(rows), len(rows[0])
    best = None
    best_x = None
    for cols in combinations(range(ncols), nrows):
        square = [[rows[r][j] for j in cols] for r in range(nrows)]
        basic = _solve_square(square, rhs)
        if basic is None or any(v < 0 for v in basic):
            continue
        x = [Fraction(0)] * ncols
        for j, v in zip(cols, basic):
            x[j] = v
        value = sum(c * v for c, v in zip(costs, x))
        if best is None or value > best:
            best = value
            best_x = tuple(x[:nvars])
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_x


def oracle_status(lp):
    """(status, value), deciding unboundedness as well.

    A feasible program is unbounded exactly when its recession cone
    {d >= 0 : A d (senses) 0} holds a direction with objective @ d > 0.
    Capping sum(d) <= 1 makes that search a bounded program, which
    ``oracle_solve`` decides exactly.
    """
    status, value, _ = oracle_solve(lp)
    if status == "infeasible":
        return status, None
    n = len(lp.objective[1])
    ray = standard_form(
        fractions_of(lp.objective),
        lp.constraint_matrix.entries + ((Fraction(1),) * n,),
        (Fraction(0),) * lp.constraint_matrix.rows + (Fraction(1),),
        lp.senses + ("le",),
    )
    if oracle_solve(ray)[1] > 0:
        return "unbounded", None
    return "optimal", value


def lp_witness(source, target):
    """A garbling F with P F = Q and matching barycenters as a tuple of rows, or None.

    Each row of F sums to 1, and each column j reproduces the target weight
    (sum_i p_i F_ij = q_j) and the target moment (sum_i p_i a_i F_ij = q_j b_j).
    """
    p, q, b = source.weights, target.weights, target.atoms
    moments = tuple(w * x for w, x in zip(p, source.atoms))
    m = len(q)
    _, grid = solve_garbling(
        len(p), m, [(j, p, q[j]) for j in range(m)] + [(j, moments, q[j] * b[j]) for j in range(m)]
    )
    return grid


def solve_garbling(n, width, column_rows, objective=None):
    """Solve an exact LP over the entries F[i][j] >= 0 of an n x width garbling.

    Every row of F sums to 1, and each ``(j, coefficients, rhs)`` in
    ``column_rows`` adds the equation sum_i coefficients[i] * F[i][j] == rhs.
    ``objective`` holds one coefficient per entry in row-major order; without
    it the program is a feasibility problem. Returns the outcome and, when it
    is optimal, F as a tuple of rows.
    """
    zero, one = Fraction(0), Fraction(1)
    nvars = n * width
    rows, rhs = [], []
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
    outcome = reference_solve(
        standard_form(objective if objective is not None else (zero,) * nvars, rows, rhs, ("eq",) * len(rows))
    )
    if outcome.status != "optimal":
        return outcome, None
    return outcome, tuple(outcome.solution[i * width : (i + 1) * width] for i in range(n))


def garbling_persuasion_value(source, utility, candidates):
    """The persuasion optimum as an LP over garbling entries F[i][j].

    F sends source atom i to candidate j; every row sums to 1 and every
    candidate column's barycenter is its position. Returns the optimal value.
    """
    p, a = source.weights, source.atoms
    values = [evaluate(utility, c) for c in candidates]
    outcome, _ = solve_garbling(
        len(p),
        len(candidates),
        [
            (j, tuple(w * (x - c) for w, x in zip(p, a)), Fraction(0))
            for j, c in enumerate(candidates)
        ],
        [w * v for w in p for v in values],
    )
    return outcome.value
