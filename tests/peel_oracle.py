"""The integer peel as it was, re-eliminating the support at every walk step: a test-only oracle.

``mpcmix.decomposition`` keeps one state for the remainder's support, its
greedy basis and each other column's dependency on it, and updates it as
columns are zeroed. Here every walk step takes the first dependency that
``_echelon`` yields for the whole support, from scratch, so tests can
require the same vertices and byte-identical mixtures from both.
"""

from fractions import Fraction
from math import gcd

from mpcmix.decomposition import Mixture, _components
from mpcmix.errors import InternalError
from mpcmix.linalg import _echelon


def walk_to_vertex(rows, point: list[int], den: int) -> tuple[list[int], int]:
    """Walk from ``point / den`` in {s >= 0 : F s = 1} to a vertex of that polytope.

    ``rows`` are F's integer rows, and a point is an integer vector over one
    positive denominator. Each step takes the dependency c of F's support
    columns and moves along -c until the first coordinate with c_k > 0
    reaches zero. With P_a / c_a the least ratio, found by cross-multiplying,
    the new point is (P c_a - P_a c) / (den c_a), reduced by its gcd. The walk
    ends, returning its last point and denominator, when the support columns
    are linearly independent.
    """
    while True:
        support = [k for k, x in enumerate(point) if x]
        c = next((d for d in _echelon(rows, support) if d is not None), None)
        if c is None:
            return point, den
        pa = ca = 0
        for k, ck in zip(support, c):
            if ck > 0 and (not ca or point[k] * ca < pa * ck):
                pa, ca = point[k], ck
        point = [x * ca for x in point]
        for k, ck in zip(support, c):
            if ck:
                point[k] -= pa * ck
        den *= ca
        g = gcd(den, *point)
        if g != 1:
            den //= g
            point = [x // g for x in point]


def decompose_full(triple) -> Mixture:
    """Carathéodory peeling from r = 1 with :func:`walk_to_vertex`, as ``decompose_full`` peels."""
    n = len(triple.source.atoms)
    int_rows = [ints for _, ints in triple.transition._integer_rows]
    remainder, den = [1] * triple.transition.cols, 1
    weight = Fraction(1)
    peeled = []
    while True:
        vertex, dv = walk_to_vertex(int_rows, remainder, den)
        if vertex == remainder:
            peeled.append((weight, vertex, dv))
            break
        ra = va = 0
        for r, v in zip(remainder, vertex):
            if v > 0 and (not va or r * va < ra * v):
                ra, va = r, v
        lam = Fraction(ra * dv, den * va)
        peeled.append((weight * lam, vertex, dv))
        weight *= 1 - lam
        remainder = [r * va - ra * v for r, v in zip(remainder, vertex)]
        den = den * va - ra * dv
        g = gcd(den, *remainder)
        if g != 1:
            den //= g
            remainder = [r // g for r in remainder]
    components = _components(triple, peeled)
    for _, component in components:
        if len(component.target.atoms) > n:
            raise InternalError("peeled component has more atoms than the source")
    components.sort(key=lambda item: (-item[0], item[1].target.atoms))
    return Mixture(tuple(components))
