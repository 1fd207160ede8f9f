"""The order test and the left-curtain witness as they were built over ``Fraction`` values: a test-only reference.

``mpcmix.distributions`` decides the contraction order and walks each shadow
on integers over common denominators. These are the earlier versions, kept
unchanged: every mass, moment and window is a ``Fraction``, and the witness
is built as a ``Fraction`` grid that ``TransitionMatrix`` converts to integer
rows. Tests require the same reason strings and the same integer rows from
both.
"""

from __future__ import annotations

from fractions import Fraction

from mpcmix.distributions import DiscreteDistribution, SmpcTriple, TransitionMatrix
from mpcmix.errors import InternalError, MpcError


def mpc_violation(source: DiscreteDistribution, candidate: DiscreteDistribution) -> str | None:
    """Why ``candidate`` is not a mean-preserving contraction of ``source``.

    Returns ``None`` when it is one. The test is the integrated-cdf criterion:
    equal means, and the integrated cdf of the candidate weakly below that of
    the source. Both integrated cdfs are piecewise linear with kinks only at
    atoms, so comparing at every atom of either distribution decides the
    pointwise inequality. One merged sweep over both atom lists carries the
    mass and first moment below t of each, since the integrated cdf at t is
    t * mass - moment; the differences candidate minus source are enough.
    """
    means = [sum(p * a for p, a in zip(d.weights, d.atoms)) for d in (candidate, source)]
    if means[0] != means[1]:
        return "mean mismatch"
    a, p = source.atoms, source.weights
    b, q = candidate.atoms, candidate.weights
    mass = moment = Fraction(0)
    i = j = 0
    while i < len(a) or j < len(b):
        t = b[j] if i == len(a) or (j < len(b) and b[j] < a[i]) else a[i]
        if t * mass > moment:
            return f"integrated cdf exceeds at {t}"
        if i < len(a) and a[i] == t:
            mass -= p[i]
            moment -= p[i] * t
            i += 1
        if j < len(b) and b[j] == t:
            mass += q[j]
            moment += q[j] * t
            j += 1
    return None



def _shadow(
    atoms: tuple[Fraction, ...], left: list[Fraction], mass: Fraction, at: Fraction
) -> dict[int, Fraction]:
    """The source mass that a target atom of ``mass`` at ``at`` takes.

    ``left[i]`` is the mass of source atom i not yet taken. The shadow is the
    quantile window of that mass, of total ``mass``, whose mean is ``at``; the
    result maps each source index to the mass taken there.

    As the window's start s slides right, its first moment grows at the rate
    a[right end] - a[left end] >= 0, which changes only where either end
    crosses from one atom to the next. The sweep walks those breakpoints, and
    in the piece that reaches ``mass * at`` one linear equation gives s.
    """
    moment = mass * at
    live = [i for i, x in enumerate(left) if x]
    # The leftmost window: all of live[:hi] and the first part of live[hi].
    hi, below, window = 0, Fraction(0), Fraction(0)
    while below + left[live[hi]] < mass:
        below += left[live[hi]]
        window += left[live[hi]] * atoms[live[hi]]
        hi += 1
    window += (mass - below) * atoms[live[hi]]
    # head: mass of live[lo] from the window's start on; tail: mass of
    # live[hi] beyond the window's end.
    lo, head, tail = 0, left[live[0]], below + left[live[hi]] - mass
    if window > moment:
        raise InternalError(f"no shadow window for the target atom at {at}: every window's mean is above it")
    while window < moment:
        if not tail:
            hi += 1
            if hi == len(live):
                raise InternalError(f"no shadow window for the target atom at {at}: every window's mean is below it")
            tail = left[live[hi]]
        rate = atoms[live[hi]] - atoms[live[lo]]
        step = min(head, tail)
        if window + rate * step >= moment:
            step = (moment - window) / rate
            head -= step
            tail -= step
            break
        window += rate * step
        head -= step
        tail -= step
        if not head:
            lo += 1
            head = left[live[lo]]
    if lo == hi:
        return {live[lo]: mass}
    taken = {live[lo]: head, live[hi]: left[live[hi]] - tail}
    for k in range(lo + 1, hi):
        taken[live[k]] = left[live[k]]
    return taken


def find_witness(source: DiscreteDistribution, target: DiscreteDistribution) -> TransitionMatrix | None:
    """A garbling matrix certifying that ``target`` is an MPC of ``source``, or None.

    ``mpc_violation`` decides first, so a pair that is not a contraction
    builds nothing. Otherwise the matrix is the left-curtain coupling
    (Beiglböck & Juillet 2016): target atoms are taken from left to right,
    each takes its shadow (see ``_shadow``) in the source mass still unused,
    and F[i][j] is the mass atom j takes from source atom i over p_i. The
    construction is O(n * m) exact operations, deterministic, and the result
    is revalidated by the full ``SmpcTriple`` check. A shadow that does not
    exist, or a witness that fails the check, is an ``InternalError``.
    """
    if mpc_violation(source, target) is not None:
        return None
    atoms, p = source.atoms, source.weights
    left = list(p)
    zero = Fraction(0)
    columns = []
    for q, b in zip(target.weights, target.atoms):
        column = [zero] * len(p)
        for i, x in _shadow(atoms, left, q, b).items():
            left[i] -= x
            column[i] = x / p[i]
        columns.append(column)
    try:
        witness = TransitionMatrix(tuple(zip(*columns)))
        SmpcTriple(source, witness, target)
    except MpcError as exc:
        raise InternalError(f"shadow witness failed revalidation: {exc}") from exc
    return witness
