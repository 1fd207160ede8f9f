"""Decomposing a garbled target into a mixture of coarser ones.

The engine is column zeroing. Given a null vector c of the transition's
columns (sum of c_j * column_j = 0), redistributing column j across the
others by scaling each column k by (1 - c_k / c_j) leaves every row sum at 1,
preserves within-column ratios (hence barycenters), and empties column j.
The scalings stay inside [0, 1] exactly when j maximizes |c| within its sign
group, and the two group maximizers j*, j** produce the unique pair of
matrices whose convex combination

    alpha * zeroed(j*) + (1 - alpha) * zeroed(j**),  alpha = |c_j*| / (|c_j*| + |c_j**|)

reproduces the original transition entry for entry.

The full decomposition writes the same step on column scales: F diag(s) is a
garbling of the source exactly when s >= 0 and F s = 1, and F itself is
s = 1. Zeroing walks a point of that polytope to a vertex, whose support
columns are linearly independent, so its garbling has at most rank(F) <= n
atoms. Carathéodory peeling removes one vertex at a time from the remainder,
giving a mixture of at most m - rank(F) + 1 targets with at most n atoms
each that reproduces the original target exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .linalg import Matrix, format_rational, null_space_vector, parse_rational, rank


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
    alpha: Fraction
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
        total = Fraction(0)
        source = self.components[0][1].source
        for weight, component in self.components:
            if weight <= 0:
                raise ValueError("mixture weights must be positive")
            if component.source != source:
                raise ValueError("mixture components must share one source")
            total += weight
        if total != 1:
            raise ValueError(f"mixture weights sum to {format_rational(total)}, not 1")

    @property
    def source(self) -> DiscreteDistribution:
        return self.components[0][1].source

    def recompose(self) -> DiscreteDistribution:
        """The weighted sum of component targets, as one distribution."""
        masses: dict[Fraction, Fraction] = {}
        for weight, component in self.components:
            for atom, w in zip(component.target.atoms, component.target.weights):
                masses[atom] = masses.get(atom, Fraction(0)) + weight * w
        atoms = tuple(sorted(masses))
        return DiscreteDistribution(atoms, tuple(masses[a] for a in atoms))

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "components": [
                {
                    "weight": format_rational(weight),
                    "target": component.target.to_json(),
                    "transition": component.transition.to_json(),
                }
                for weight, component in self.components
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "Mixture":
        if not isinstance(obj, dict) or "source" not in obj or "components" not in obj:
            raise ValueError("mixture JSON needs 'source' and 'components'")
        source = DiscreteDistribution.from_json(obj["source"])
        components = []
        for entry in obj["components"]:
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

    ``coefficients`` must be a null vector of the transition's columns with a
    nonzero entry at ``j``. Column k is scaled by (1 - c_k / c_j): same-sign
    columns shrink, opposite-sign columns grow, zero-coefficient columns stay.
    If any scaled entry leaves [0, 1], ``j`` was not a maximizer of |c| within
    its sign group and an ``EntryRangeError`` is raised.
    """
    c = tuple(Fraction(x) for x in coefficients)
    m = transition.cols
    if len(c) != m:
        raise DimensionError(f"coefficient vector has length {len(c)}, expected {m}")
    zero = Fraction(0)
    for i, row in enumerate(transition.matrix.entries):
        if sum((ck * x for ck, x in zip(c, row) if x), zero) != 0:
            raise NullVectorError(f"coefficients are not a null vector (row {i} fails)")
    if c[j] == 0:
        raise NullVectorError(f"coefficient at column {j} is zero; it cannot be zeroed")
    return _apply_zeroing(transition, c, j)


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
    for i, row in enumerate(transition.matrix.entries):
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
                    f"{format_rational(v)}, outside [0, 1]",
                    row=i,
                    column=k,
                )
            new_row.append(v)
        grid.append(tuple(new_row))
    return TransitionMatrix._trusted(Matrix(tuple(grid)))


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
    c = null_space_vector(triple.transition.matrix)
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
        triple.transition.matrix.entries,
        left_embedded.matrix.entries,
        right_embedded.matrix.entries,
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
    return SplitResult(alpha, left, right, certificate)


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
    rows = triple.transition.matrix.entries
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
        component = apply_transition(triple.source, TransitionMatrix._trusted(Matrix(grid)))
        if len(component.target.atoms) > n:
            raise InternalError("peeled component has more atoms than the source")
        components.append((w, component))
    components.sort(
        key=lambda item: (-item[0], item[1].target.atoms, item[1].transition.matrix.entries)
    )
    return Mixture(tuple(components))


def embed_transition(component: SmpcTriple, atoms: tuple[Fraction, ...]) -> Matrix:
    """Widen a component's transition onto a full atom grid.

    Each column lands at the position of its atom within ``atoms``; missing
    atoms get zero columns. This is the embedding under which mixture weights
    recombine to the original transition: sum of w_k * embedded_k == original.
    """
    index = {atom: pos for pos, atom in enumerate(atoms)}
    n = len(component.source.atoms)
    grid = [[Fraction(0)] * len(atoms) for _ in range(n)]
    for j, atom in enumerate(component.target.atoms):
        if atom not in index:
            raise DimensionError(f"component atom {format_rational(atom)} not in the grid")
        pos = index[atom]
        col = component.transition.column(j)
        for i in range(n):
            grid[i][pos] = col[i]
    return Matrix(tuple(tuple(row) for row in grid))


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of probing every column of an (n+1)-atom triple for zeroability."""

    pair: tuple[int, int]
    zeroable: tuple[int, ...]
    certificate: SplitCertificate


def verify_uniqueness(triple: SmpcTriple) -> UniquenessReport:
    """Probe all columns; exactly the two group maximizers admit zeroing.

    Requires one more target atom than source atoms and full row rank, so the
    null direction is unique up to scale. Columns tied with a group maximizer
    are emptied alongside it and therefore also pass the probe; they show up
    in ``zeroable`` beyond the canonical pair.
    """
    n, m = len(triple.source.atoms), len(triple.target.atoms)
    if m != n + 1:
        raise DimensionError(f"need n+1 target atoms, got n={n}, m={m}")
    if rank(triple.transition.matrix) != n:
        raise RankError("transition rank below source size: multiple null directions")
    result = split_once(triple)
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
