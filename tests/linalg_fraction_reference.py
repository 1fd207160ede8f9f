"""Elimination, splitting and peeling as they were over ``Fraction`` rows: a test-only reference.

``mpcmix.linalg`` eliminates fraction-free on integer rows, and
``mpcmix.decomposition`` walks and peels on integer vectors over one
denominator and builds every component from its column scales. These are the
earlier ``Fraction`` versions, kept unchanged, so tests can require the same
null vectors, ranks, splits and mixtures from both.
"""

from fractions import Fraction

from mpcmix.decomposition import Mixture, SplitCertificate, SplitResult
from mpcmix.distributions import SmpcTriple, TransitionMatrix, apply_transition
from mpcmix.errors import EntryRangeError, InternalError, NoSplitError, NullVectorError
from mpcmix.linalg import Matrix, integer_row


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


def _apply_zeroing(
    transition: TransitionMatrix, c: tuple[Fraction, ...], j: int
) -> TransitionMatrix:
    """Scaling core of zero_column; c must already be a verified null vector.

    Row sums survive exactly because sum_k (1 - c_k/c_j) f_ik equals
    sum_k f_ik - (1/c_j) sum_k c_k f_ik = 1 for a null vector c, so only the
    [0, 1] entry range needs checking here.
    """
    m = transition.cols
    zero, one = Fraction(0), Fraction(1)
    cj = c[j]
    scales = [one - ck / cj for ck in c]
    scales[j] = zero
    grid = []
    for i, row in enumerate(transition.entries):
        new_row = []
        for k in range(m):
            x = row[k]
            s = scales[k]
            if x == 0 or s == 0:
                new_row.append(zero)
                continue
            if s == 1:
                new_row.append(x)
                continue
            v = s * x
            if v < 0 or v > 1:
                raise EntryRangeError(
                    f"zeroing column {j} drives entry ({i},{k}) to "
                    f"{v}, outside [0, 1]",
                    row=i,
                    column=k,
                )
            new_row.append(v)
        grid.append(tuple(new_row))
    return TransitionMatrix._trusted(tuple(map(integer_row, grid)))


def _group_max(c: tuple[Fraction, ...], group: tuple[int, ...]) -> int:
    best = group[0]
    for j in group[1:]:
        if abs(c[j]) > abs(c[best]):
            best = j
    return best


def split_once(triple: SmpcTriple) -> SplitResult:
    """Split a triple into two with strictly fewer target atoms.

    Raises ``NoSplitError`` when the transition's columns are linearly
    independent (then the target already has at most as many atoms as the
    source). The recomposition identity alpha*left + (1-alpha)*right ==
    transition is verified entry for entry before returning, with left/right
    taken in their embedded form (zeroed columns kept as zeros).
    """
    c = null_space_vector(triple.transition)
    if c is None:
        raise NoSplitError("transition columns are linearly independent; no split exists")
    positive = tuple(j for j, v in enumerate(c) if v > 0)
    negative = tuple(j for j, v in enumerate(c) if v < 0)
    if not positive or not negative:
        raise NullVectorError("null vector of a stochastic garbling must mix signs")
    jp = _group_max(c, positive)
    jn = _group_max(c, negative)
    # The branch zeroed first comes from the group holding the larger
    # magnitude; on a cross-group tie the lower column index leads.
    if abs(c[jn]) > abs(c[jp]):
        j_star, j_second = jn, jp
    elif abs(c[jp]) > abs(c[jn]):
        j_star, j_second = jp, jn
    else:
        j_star, j_second = min(jp, jn), max(jp, jn)
    alpha = abs(c[j_star]) / (abs(c[j_star]) + abs(c[j_second]))
    left_embedded = _apply_zeroing(triple.transition, c, j_star)
    right_embedded = _apply_zeroing(triple.transition, c, j_second)
    beta = 1 - alpha
    zero = Fraction(0)
    for row_f, row_l, row_r in zip(
        triple.transition.entries,
        left_embedded.entries,
        right_embedded.entries,
    ):
        for f, l, r in zip(row_f, row_l, row_r):
            if l == 0:
                combined = beta * r if r else zero
            elif r == 0:
                combined = alpha * l
            else:
                combined = alpha * l + beta * r
            if combined != f:
                raise InternalError("split recomposition identity failed")
    left = apply_transition(triple.source, left_embedded)
    right = apply_transition(triple.source, right_embedded)
    m = len(triple.target.atoms)
    if len(left.target.atoms) >= m or len(right.target.atoms) >= m:
        raise InternalError("split did not reduce the atom count")
    group_a = positive if c[j_star] > 0 else negative
    group_b = negative if c[j_star] > 0 else positive
    certificate = SplitCertificate(
        coefficients=c,
        group_a=group_a,
        group_b=group_b,
        j_star=j_star,
        j_star_star=j_second,
        alpha=alpha,
    )
    return SplitResult(left, right, certificate)


def _walk_to_vertex(
    rows: tuple[tuple[Fraction, ...], ...], point: list[Fraction]
) -> list[Fraction]:
    """Walk from ``point`` in {s >= 0 : F s = 1} to a vertex of that polytope.

    Each step takes a null vector c of F restricted to the point's support
    and moves along -c until the first coordinate with c_k > 0 reaches zero:
    the zeroing step of ``split_once`` written on column scales. The walk
    ends when the support columns are linearly independent.
    """
    while True:
        support = [k for k, x in enumerate(point) if x]
        c = null_space_vector(Matrix(tuple(tuple(row[k] for k in support) for row in rows)))
        if c is None:
            return point
        step = min(point[k] / ck for k, ck in zip(support, c) if ck > 0)
        point = list(point)
        for k, ck in zip(support, c):
            if ck:
                point[k] -= step * ck


def decompose_full(triple: SmpcTriple) -> Mixture:
    """Mixture of triples whose targets all have at most n atoms (n = source size).

    Each component is F diag(v) for a vertex v of the polytope
    {s >= 0 : F s = 1} of column scales, where F is the triple's transition
    and s = 1 is F itself. Carathéodory peeling, starting from the remainder
    r = 1: walk from r to a vertex v, take the largest weight lambda that
    keeps r - lambda v nonnegative, and continue with
    r <- (r - lambda v) / (1 - lambda), which has one more zero coordinate,
    until r is itself a vertex. A vertex's support columns are linearly
    independent, so each component has at most rank(F) <= n atoms, and there
    are at most m - rank(F) + 1 components. Peeled vertices are pairwise
    distinct, because each peel zeroes a coordinate of the vertex it peeled,
    and so are the components, because F's columns have distinct barycenters.

    The recomposition identity sum_k w_k v_k == 1, hence
    sum_k w_k F diag(v_k) == F entry for entry, is verified exactly before
    returning. Components are ordered by descending weight with lexicographic
    atom/entry tie-breaks, so equal inputs always produce the identical
    mixture.
    """
    n = len(triple.source.atoms)
    rows = triple.transition.entries
    one = Fraction(1)
    remainder = [one] * triple.transition.cols
    weight = one
    peeled: list[tuple[Fraction, list[Fraction]]] = []
    while True:
        vertex = _walk_to_vertex(rows, remainder)
        if vertex == remainder:
            peeled.append((weight, vertex))
            break
        # In (0, 1): supp(v) lies inside supp(r), and lambda >= 1 would give
        # r - v >= 0 in the null space of F, impossible as no column is zero.
        lam = min(r / v for r, v in zip(remainder, vertex) if v)
        peeled.append((weight * lam, vertex))
        rest = one - lam
        remainder = [(r - lam * v) / rest if r else r for r, v in zip(remainder, vertex)]
        weight *= rest

    total = [Fraction(0)] * len(remainder)
    for w, vertex in peeled:
        for k, v in enumerate(vertex):
            if v < 0:
                raise InternalError(f"peeled vertex has a negative scale at column {k}")
            if v:
                total[k] += w * v
    if any(t != one for t in total):
        raise InternalError("peel recomposition identity failed")
    components = []
    for w, vertex in peeled:
        support = [k for k, v in enumerate(vertex) if v]
        grid = tuple(tuple(row[k] * vertex[k] for k in support) for row in rows)
        component = apply_transition(triple.source, TransitionMatrix._trusted(tuple(map(integer_row, grid))))
        if len(component.target.atoms) > n:
            raise InternalError("peeled component has more atoms than the source")
        components.append((w, component))
    components.sort(
        key=lambda item: (-item[0], item[1].target.atoms, item[1].transition.entries)
    )
    return Mixture(tuple(components))

