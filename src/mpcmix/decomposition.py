"""Decomposing a garbled target into a mixture of coarser ones.

Every component is the transition F with its columns rescaled: F diag(v) for
a column-scale vector v >= 0 with F v = 1, which is again a garbling of the
source. Its target keeps the atoms of the columns where v is positive, each
with its weight scaled by v. One builder turns weighted scale vectors into
components, after checking exactly that every scale is nonnegative and that
the weighted scales sum to 1, so that the components recompose F entry for
entry and the original target atom for atom.

Every move on the polytope {s >= 0 : F s = 1} is one boundary step: from a
point, along a direction c with F c = 0 (a null direction) or F c = dv (a
peeled vertex v / dv), away from c until the first coordinate with c_k > 0
reaches zero. Every null direction is read from one state of F's columns,
their greedy basis and each other column's dependency on it, built by one
elimination. A split takes the first dependency c of F's columns (sum of
c_k * column_k = 0) and steps from 1 along c and along -c. The two ends zero
the maximizers j*, j** of |c| within the two sign groups, with the scales
v(j) = 1 - c / c_j, and they are the unique pair of branches whose convex
combination

    alpha * v(j*) + (1 - alpha) * v(j**) = 1,  alpha = |c_j*| / (|c_j*| + |c_j**|)

reproduces the transition. The full decomposition walks from v = 1 by
boundary steps along null directions to a vertex of the polytope, whose
support columns are linearly independent, so its component has at most
rank(F) <= n atoms. Carathéodory peeling removes one vertex at a time from
the remainder, by one boundary step along the vertex, giving a mixture of at
most m - rank(F) + 1 targets with at most n atoms each. The walk's null
directions come from that state of the remainder's support, built once and
updated as columns are zeroed; every peeled vertex is then re-checked
exactly against F v = 1. The uniqueness probe reads the rank, the number
of basic columns, and the split's direction from the same state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple

from .distributions import DiscreteDistribution, SmpcTriple, TransitionMatrix, apply_transition
from .errors import (
    DimensionError,
    EntryRangeError,
    InternalError,
    NoSplitError,
    NullVectorError,
    RankError,
)
from .linalg import (
    _echelon,
    canonical_row,
    column_sums,
    integer_row,
    json_list,
    json_object,
    parse_rational,
    rationals,
)


@dataclass(frozen=True)
class SplitCertificate:
    """Evidence for one split: the null vector, sign groups, and pivots.

    ``group_a`` is the sign group containing ``j_star`` (the column zeroed for
    the left branch); ``group_b`` is the opposite group, containing
    ``j_star_star``. Each pivot maximizes |coefficient| within its group.
    """

    coefficients: tuple[Fraction, ...]
    group_a: tuple[int, ...]
    group_b: tuple[int, ...]
    j_star: int
    j_star_star: int
    alpha: Fraction


class SplitResult(NamedTuple):
    left: SmpcTriple
    right: SmpcTriple
    certificate: SplitCertificate


@dataclass(frozen=True)
class Mixture:
    """Convex combination of garbling triples over a common source."""

    components: tuple[tuple[Fraction, SmpcTriple], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        rationals([weight for weight, _ in self.components])
        total = Fraction(0)
        source = self.components[0][1].source
        for weight, component in self.components:
            if weight <= 0:
                raise ValueError("mixture weights must be positive")
            if component.source != source:
                raise ValueError("mixture components must share one source")
            total += weight
        if total != 1:
            raise ValueError(f"mixture weights sum to {total}, not 1")

    @property
    def source(self) -> DiscreteDistribution:
        return self.components[0][1].source

    def recompose(self) -> SmpcTriple:
        """The certified triple of sum_k w_k F_k, each F_k's columns at their atoms.

        The weighted components' columns stand side by side, and
        ``apply_transition`` adds up those of one atom: a column's barycenter
        is its atom, so exactly those merge. Hence
        ``decompose_full(t).recompose() == t``.
        """
        rows = zip(*(component.transition.entries for _, component in self.components))
        grid = [[w * x for (w, _), part in zip(self.components, parts) for x in part] for parts in rows]
        return apply_transition(self.source, TransitionMatrix(grid))

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "components": [
                {
                    "weight": str(weight),
                    "target": component.target.to_json(),
                    "transition": component.transition.to_json(),
                }
                for weight, component in self.components
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "Mixture":
        json_object(obj, "mixture JSON", ("source", "components"))
        source = DiscreteDistribution.from_json(obj["source"])
        components = []
        for k, entry in enumerate(json_list(obj["components"], "'components'")):
            json_object(entry, f"mixture component {k}", ("weight", "target", "transition"))
            weight = parse_rational(entry["weight"])
            component = SmpcTriple(
                source,
                TransitionMatrix.from_json(entry["transition"]),
                DiscreteDistribution.from_json(entry["target"]),
            )
            components.append((weight, component))
        return cls(tuple(components))


def zero_column(
    transition: TransitionMatrix, coefficients, j: int
) -> TransitionMatrix:
    """Empty column ``j`` by redistributing it across the other columns.

    ``coefficients`` must be a null vector of the transition's columns, each
    a ``Fraction`` or an ``int`` (else ``ValueError("not a rational: ...")``),
    with a nonzero entry at ``j``. Column k is scaled by (1 - c_k / c_j):
    same-sign columns shrink, opposite-sign columns grow, zero-coefficient
    columns stay.
    Row sums survive exactly, because sum_k (1 - c_k/c_j) f_ik equals
    sum_k f_ik - (1/c_j) sum_k c_k f_ik = 1 for a null vector c. If any scaled
    entry leaves [0, 1], ``j`` was not a maximizer of |c| within its sign
    group and an ``EntryRangeError`` is raised. A ``j`` that is not a column
    index, 0 to m - 1, is a ``DimensionError``.
    """
    m = transition.cols
    if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < m:
        raise DimensionError(f"column {j!r} is not an index of the {m} columns")
    c = rationals(tuple(coefficients))
    if len(c) != m:
        raise DimensionError(f"coefficient vector has length {len(c)}, expected {m}")
    # c over one positive denominator; only its integer numerators matter.
    _, d = integer_row(c)
    rows = transition._integer_rows
    for i, (_, ints) in enumerate(rows):
        if sum(map(mul, d, ints)):
            raise NullVectorError(f"coefficients are not a null vector (row {i} fails)")
    if d[j] == 0:
        raise NullVectorError(f"coefficient at column {j} is zero; it cannot be zeroed")
    # The scales 1 - c_k / c_j as integers t_k over |d_j|: the boundary step
    # from 1 along sign(d_j) d with column j taken as its a, which keeps
    # every scale nonnegative only when j ties the step's least ratio.
    sign = 1 if d[j] > 0 else -1
    t = [sign * (d[j] - x) for x in d]
    den = sign * d[j]
    grid = []
    for i, (scale, ints) in enumerate(rows):
        bound = scale * den
        new_row = [x * s for x, s in zip(ints, t)]
        for k, v in enumerate(new_row):
            if v < 0 or v > bound:
                raise EntryRangeError(
                    f"zeroing column {j} drives entry ({i},{k}) to {Fraction(v, bound)}, outside [0, 1]",
                    row=i,
                    column=k,
                )
        grid.append(canonical_row(bound, new_row))
    return TransitionMatrix._trusted(tuple(grid))


def _components(triple: SmpcTriple, scaled) -> list[tuple[Fraction, SmpcTriple]]:
    """The weighted components F diag(v / dv) of ``triple``, checked to recompose it.

    ``scaled`` holds ``(weight, v, dv)`` triples: v is an integer column-scale
    vector over the positive denominator dv. Every scale must be
    nonnegative, F v = dv must hold exactly on F's integer rows, so that each
    component is again a garbling of the source, and sum_k w_k v_k / dv_k
    must be 1 exactly, coordinate by coordinate, or ``InternalError`` is
    raised; then sum_k w_k F diag(v_k / dv_k) == F entry for entry.

    Each component is what ``apply_transition`` makes of F diag(v / dv),
    built straight from F's integer rows and the target: in a certified
    triple column k has mass q_k > 0 and barycenter b_k, and the b_k are
    distinct and increasing. So column k of the component has mass
    q_k v_k / dv and barycenter b_k, exactly the columns with v_k > 0 are kept,
    none merge, and they are already in atom order.
    """
    rows = triple.transition._integer_rows
    for _, v, dv in scaled:
        for k, x in enumerate(v):
            if x < 0:
                raise InternalError(f"peeled vertex has a negative scale at column {k}")
        for i, (scale, ints) in enumerate(rows):
            if sum(map(mul, ints, v)) != scale * dv:
                raise InternalError(f"peeled vertex fails F v = 1 at row {i}")
    d, total = column_sums(integer_row([w for w, _, _ in scaled]), [(dv, v) for _, v, dv in scaled])
    if any(t != d for t in total):
        raise InternalError("peel recomposition identity failed")
    (e, atoms), (q, weights) = triple.target._integer_rows
    components = []
    for w, v, dv in scaled:
        # Entry (i, k) of F diag(v) is (ints_i[k] / scale_i) * (v_k / dv), and
        # the target keeps atom k with weight (weights[k] / q) * (v_k / dv).
        support = [(k, x) for k, x in enumerate(v) if x]
        grid = tuple(canonical_row(scale * dv, [ints[k] * x for k, x in support]) for scale, ints in rows)
        kept = canonical_row(e, [atoms[k] for k, _ in support])
        target = DiscreteDistribution._checked((kept, canonical_row(q * dv, [weights[k] * x for k, x in support])))
        transition = TransitionMatrix._trusted(grid)
        components.append((w, SmpcTriple._trusted(triple.source, transition, target)))
    return components


def _boundary_step(point: list[int], den: int, c, mass: int) -> tuple[list[int], int, int]:
    """Move ``point / den`` away from c to the boundary of {s >= 0 : F s = 1}.

    A point is an integer vector over one positive denominator, and the
    direction c is given by its nonzero entries as ``(column, coefficient)``
    pairs, with F c = ``mass``: 0 for a null direction, dv for a vertex v / dv.
    The step goes along -c until the first coordinate a with c_a > 0 reaches
    zero, at the least ratio P_a / c_a, found by cross-multiplying; on a tie
    the first such pair in c gives a, and every tied coordinate reaches zero
    with it. The new point is (P c_a - P_a c) / (den c_a - P_a mass), on
    which F is again 1, in lowest terms through ``canonical_row``. Returns
    that point, its denominator and a.
    """
    pa = ca = a = 0
    for k, ck in c:
        if ck > 0 and (not ca or point[k] * ca < pa * ck):
            pa, ca, a = point[k], ck, k
    moved = [x * ca for x in point]
    for k, ck in c:
        moved[k] -= pa * ck
    den, moved = canonical_row(den * ca - pa * mass, moved)
    return moved, den, a


def split_once(triple: SmpcTriple) -> SplitResult:
    """Split a triple into two with strictly fewer target atoms.

    Raises ``NoSplitError`` when the transition's columns are linearly
    independent (then the target already has at most as many atoms as the
    source). The null direction is the first dependency of the columns'
    basis state (:class:`_Basis`), built by one elimination: the integer
    vector d with gcd 1 and first nonzero entry positive, and the
    certificate's coefficients are d over that entry. The two branches are
    the ends of the segment through 1 along d: one boundary step from 1
    along d and one along -d, each zeroing the first maximizer of |d| within
    one sign group, j, with the scales 1 - d / d_j. The recomposition
    identity alpha * left + (1 - alpha) * right == transition is verified
    exactly on those scales before returning.
    """
    return _split(triple, _transition_basis(triple))


def _split(triple: SmpcTriple, basis: _Basis) -> SplitResult:
    """:func:`split_once` on ``basis``, the state of all of the triple's transition columns."""
    if not basis.deps:
        raise NoSplitError("transition columns are linearly independent; no split exists")
    # q·c = p·F·c = 0 with every target weight q_j > 0, so d mixes signs.
    up = basis.dependency(next(iter(basis.deps)))
    d = dict(up)
    m = triple.transition.cols
    ends = []
    for direction in (up, [(k, -x) for k, x in up]):
        point, den, j = _boundary_step([1] * m, 1, direction, 0)
        ends.append((abs(d[j]), j, point, den, direction))
    # The branch zeroed first comes from the group holding the larger
    # magnitude; on a cross-group tie the lower column index leads.
    ends.sort(key=lambda end: (-end[0], end[1]))
    (size_a, j_star, left_v, left_den, lead), (size_b, j_second, right_v, right_den, _) = ends
    alpha = Fraction(size_a, size_a + size_b)
    (_, left), (_, right) = _components(triple, [(alpha, left_v, left_den), (1 - alpha, right_v, right_den)])
    if left.target.cols >= m or right.target.cols >= m:
        raise InternalError("split did not reduce the atom count")
    certificate = SplitCertificate(
        coefficients=tuple(Fraction(d.get(k, 0), up[0][1]) for k in range(m)),
        group_a=tuple(k for k, x in lead if x > 0),
        group_b=tuple(k for k, x in lead if x < 0),
        j_star=j_star,
        j_star_star=j_second,
        alpha=alpha,
    )
    return SplitResult(left, right, certificate)


class _Basis:
    """The greedy basis of a support of F's columns, and each other column's dependency on it.

    The greedy basis is the lexicographically first one: the support columns
    that do not depend on the support columns before them, which is what
    :func:`_echelon` finds. ``columns`` holds the basic column of each slot,
    or ``None`` for a slot whose column left with no successor. ``deps`` maps
    each other support column j, in column order, to ``(c_j, v)``: c_j times
    column j plus the sum of ``v[s]`` times the column in slot s is zero, with
    gcd 1 over c_j and v. Only basic columns before j take part, so this is
    the dependency ``_echelon`` yields at j, up to sign. The first key of
    ``deps`` is the first support column that depends on the ones before it.
    """

    __slots__ = ("columns", "deps")

    def __init__(self, columns: list, deps: dict[int, tuple[int, list[int]]]) -> None:
        self.columns = columns
        self.deps = deps

    @classmethod
    def of(cls, rows, m: int) -> "_Basis":
        """The state of all m columns of the integer ``rows``, by one elimination."""
        found = list(_echelon(rows, range(m)))
        columns = [k for k, d in enumerate(found) if d is None]
        deps = {k: (d[k], [d[b] for b in columns]) for k, d in enumerate(found) if d is not None}
        return cls(columns, deps)

    def copy(self) -> "_Basis":
        """An independent state: dependencies are replaced on a drop, never mutated."""
        return _Basis(list(self.columns), dict(self.deps))

    def dependency(self, j: int) -> list[tuple[int, int]]:
        """Column j's dependency as ``(column, coefficient)`` pairs over its
        nonzero entries, in column order, with the first coefficient positive:
        the first dependency that ``_echelon`` of the support yields when j is
        the first column that depends on the ones before it."""
        cj, v = self.deps[j]
        items = sorted([(b, x) for b, x in zip(self.columns, v) if x] + [(j, cj)])
        if items[0][1] < 0:
            return [(k, -x) for k, x in items]
        return items

    def drop(self, k: int) -> None:
        """Remove column ``k`` from the support.

        A non-basic column just leaves ``deps``: no dependency uses it, and
        without it every prefix of the support spans what it spanned. A basic
        column k is replaced in its slot by the first later column e whose
        dependency uses it. That column no longer depends on the columns
        before it, while every longer prefix spans what it spanned, so this
        exchange is the only change to the greedy basis. Each later user j of
        k trades k for e by one integer pivot, e_k d_j - d_k d_e with the
        multipliers divided by their gcd, and the result by its own gcd.
        """
        deps = self.deps
        if deps.pop(k, None) is not None:
            return
        s = self.columns.index(k)
        users = [j for j, (_, v) in deps.items() if v[s]]
        if not users:
            self.columns[s] = None
            return
        ce, ve = deps.pop(users[0])
        self.columns[s] = users[0]
        for j in users[1:]:
            cj, v = deps[j]
            a, f = ve[s], v[s]
            g = gcd(a, f)
            a, f = a // g, f // g
            w = [a * x - f * y for x, y in zip(v, ve)]
            w[s] = -f * ce
            cj *= a
            g = gcd(cj, *w)
            if g != 1:
                cj //= g
                w = [x // g for x in w]
            deps[j] = (cj, w)


def _transition_basis(triple: SmpcTriple) -> _Basis:
    """The state of all of the triple's transition columns, by one elimination."""
    return _Basis.of([ints for _, ints in triple.transition._integer_rows], triple.transition.cols)


def _walk_to_vertex(basis: _Basis, point: list[int], den: int) -> tuple[list[int], int]:
    """Walk from ``point / den`` in {s >= 0 : F s = 1} to a vertex of that polytope.

    A point is an integer vector over one positive denominator, and ``basis``
    the state of its support; the walk takes its steps on a copy. Each step
    takes the dependency c of the first support column that depends on the
    ones before it, the first dependency that ``_echelon`` of the support
    yields, and makes one boundary step along the null direction c; the
    columns it zeroes leave the state. The walk ends, returning its last
    point and denominator, when the support columns are linearly independent.
    """
    basis = basis.copy()
    while basis.deps:
        c = basis.dependency(next(iter(basis.deps)))
        point, den, _ = _boundary_step(point, den, c, 0)
        for k, _ in c:
            if not point[k]:
                basis.drop(k)
    return point, den


def decompose_full(triple: SmpcTriple) -> Mixture:
    """Mixture of triples whose targets all have at most n atoms (n = source size).

    Each component is F diag(v) for a vertex v of the polytope
    {s >= 0 : F s = 1} of column scales, where F is the triple's transition
    and s = 1 is F itself. Carathéodory peeling, starting from the remainder
    r = 1: walk from r to a vertex v, take the largest weight lambda that
    keeps r - lambda v nonnegative, and continue with
    r <- (r - lambda v) / (1 - lambda), the boundary step from r along v,
    which has one more zero coordinate, until r is itself a vertex. A vertex's support columns are linearly
    independent, so each component has at most rank(F) <= n atoms, and there
    are at most m - rank(F) + 1 components. Peeled vertices are pairwise
    distinct, because each peel zeroes a coordinate of the vertex it peeled,
    and so are the components, because F's columns have distinct barycenters.

    The peel runs on F's integer rows and keeps r and each v as an integer
    vector over one denominator; ``Fraction`` values are made only for the
    weights and for the components' targets. The support of r only shrinks,
    so one state serves the whole peel: the greedy basis of the support and
    each other column's dependency on it (:class:`_Basis`), built by one
    elimination over all m columns. Each walk takes its steps on a copy, and
    r's own state drops the columns that each peel zeroes. The walk takes
    the steps that re-eliminating the support at every step would take, so
    the mixture is the same. The builder that ``split_once`` also uses makes
    the components from the peeled vertices, after re-checking F v = dv for
    each vertex and the recomposition identity sum_k w_k v_k == 1, hence
    sum_k w_k F diag(v_k) == F entry for entry, exactly. Components are
    ordered by descending weight and then by their atoms, so equal inputs
    always produce the identical mixture.
    """
    n = triple.source.cols
    m = triple.transition.cols
    basis = _transition_basis(triple)
    remainder, den = [1] * m, 1
    weight = Fraction(1)
    peeled: list[tuple[Fraction, list[int], int]] = []  # (weight, vertex, its denominator)
    while basis.deps:
        vertex, dv = _walk_to_vertex(basis, remainder, den)
        # One boundary step from r along v, where F v = dv, gives
        # r' = (r - lambda v) / (1 - lambda) at lambda = min r_k / v_k over
        # v_k > 0, which is R_a dv / (den V_a) at the returned a. It lies in
        # (0, 1): supp(v) lies inside supp(r), and lambda >= 1 would give
        # r - v >= 0 in the null space of F, impossible as no column is zero.
        rest, rest_den, a = _boundary_step(remainder, den, [(k, v) for k, v in enumerate(vertex) if v], dv)
        lam = Fraction(remainder[a] * dv, den * vertex[a])
        peeled.append((weight * lam, vertex, dv))
        weight *= 1 - lam
        for k, (r, x) in enumerate(zip(remainder, rest)):
            if r and not x:
                basis.drop(k)
        remainder, den = rest, rest_den
    peeled.append((weight, remainder, den))
    # A component's atoms are the target's atoms at its vertex's support
    # columns, and those increase with the column index, so ordering by
    # weight and then support columns is ordering by weight and then atoms.
    # Equal support columns fix the vertex, so there are no ties.
    peeled.sort(key=lambda item: (-item[0], [k for k, x in enumerate(item[1]) if x]))

    components = _components(triple, peeled)
    for _, component in components:
        if component.target.cols > n:
            raise InternalError("peeled component has more atoms than the source")
    return Mixture(tuple(components))


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of probing every column of an (n+1)-atom triple for zeroability."""

    pair: tuple[int, int]
    zeroable: tuple[int, ...]
    certificate: SplitCertificate


def verify_uniqueness(triple: SmpcTriple) -> UniquenessReport:
    """Probe all columns; exactly the two group maximizers admit zeroing.

    Requires one more target atom than source atoms and full row rank, so the
    null direction is unique up to scale. One elimination builds the basis
    state of the columns (:class:`_Basis`): the rank is the number of basic
    columns, and the split reads its null direction from the same state.
    Columns tied with a group maximizer are emptied alongside it and
    therefore also pass the probe; they show up in ``zeroable`` beyond the
    canonical pair.
    """
    n, m = triple.source.cols, triple.target.cols
    if m != n + 1:
        raise DimensionError(f"need n+1 target atoms, got n={n}, m={m}")
    basis = _transition_basis(triple)
    if len(basis.columns) != n:
        raise RankError("transition rank below source size: multiple null directions")
    result = _split(triple, basis)
    c = result.certificate.coefficients
    zeroable = []
    for j in range(m):
        try:
            zero_column(triple.transition, c, j)
        except (EntryRangeError, NullVectorError):
            continue
        zeroable.append(j)
    pair = (
        min(result.certificate.j_star, result.certificate.j_star_star),
        max(result.certificate.j_star, result.certificate.j_star_star),
    )
    return UniquenessReport(pair=pair, zeroable=tuple(zeroable), certificate=result.certificate)
