"""The certification checks as they were over ``Fraction`` entries: a test-only reference.

``mpcmix.distributions`` checks a transition's rows, checks both garbling
identities and applies a garbling on integer rows. These are the earlier
per-entry ``Fraction`` loops, kept unchanged, so tests can require the same
results and the same errors (type, message, ``row`` and ``column``) from both.
"""

from fractions import Fraction

from mpcmix.distributions import DiscreteDistribution, SmpcTriple, TransitionMatrix
from mpcmix.errors import (
    BarycenterIdentityError,
    DimensionError,
    DistributionError,
    EntryRangeError,
    RowSumError,
    WeightIdentityError,
)
from mpcmix.linalg import Matrix, integer_row


def check_weights(weights) -> None:
    """``DiscreteDistribution``'s weight checks."""
    for w in weights:
        if w <= 0:
            raise DistributionError("weights must be positive")
    if sum(weights) != 1:
        raise DistributionError("weights must sum to exactly 1")


def check_rows(matrix: Matrix) -> None:
    """``TransitionMatrix``'s row check."""
    for i, row in enumerate(matrix.entries):
        for j, x in enumerate(row):
            if x and (x < 0 or x > 1):
                raise EntryRangeError(
                    f"entry ({i},{j}) = {x} outside [0, 1]",
                    row=i,
                    column=j,
                )
        total = sum((x for x in row if x), Fraction(0))
        if total != 1:
            raise RowSumError(f"row {i} sums to {total}, not 1")


def check_identities(
    source: DiscreteDistribution, transition: TransitionMatrix, target: DiscreteDistribution
) -> None:
    """``SmpcTriple``'s check of both garbling identities."""
    n, m = len(source.atoms), len(target.atoms)
    if transition.rows != n or transition.cols != m:
        raise DimensionError(
            f"transition is {transition.rows}x{transition.cols}, "
            f"expected {n}x{m}"
        )
    p, a = source.weights, source.atoms
    q, b = target.weights, target.atoms
    zero = Fraction(0)
    got_weight = [zero] * m
    got_moment = [zero] * m
    for i in range(n):
        pi = p[i]
        pai = pi * a[i]
        row = transition.entries[i]
        for j in range(m):
            x = row[j]
            if x:
                got_weight[j] += pi * x
                got_moment[j] += pai * x
    for j in range(m):
        if got_weight[j] != q[j]:
            raise WeightIdentityError(
                f"weight identity fails at column {j}: "
                f"{got_weight[j]} != {q[j]}",
                column=j,
            )
    for j in range(m):
        if got_moment[j] != q[j] * b[j]:
            raise BarycenterIdentityError(
                f"barycenter identity fails at column {j}: "
                f"{got_moment[j]} != {q[j] * b[j]}",
                column=j,
            )


def apply_transition(source: DiscreteDistribution, transition: TransitionMatrix) -> SmpcTriple:
    """``apply_transition``: drop zero-mass columns, merge equal barycenters, sort."""
    n = len(source.atoms)
    if transition.rows != n:
        raise DimensionError(f"transition has {transition.rows} rows, expected {n}")
    m = transition.cols
    p, a = source.weights, source.atoms
    zero = Fraction(0)
    masses = [zero] * m
    moments = [zero] * m
    for i in range(n):
        pi = p[i]
        pai = pi * a[i]
        row = transition.entries[i]
        for j in range(m):
            x = row[j]
            if x:
                masses[j] += pi * x
                moments[j] += pai * x
    cells: dict[Fraction, tuple[Fraction, list[Fraction]]] = {}
    for j in range(m):
        if masses[j] == 0:
            continue
        barycenter = moments[j] / masses[j]
        col = tuple(row[j] for row in transition.entries)
        if barycenter in cells:
            old_mass, old_col = cells[barycenter]
            cells[barycenter] = (
                old_mass + masses[j],
                [x + y for x, y in zip(old_col, col)],
            )
        else:
            cells[barycenter] = (masses[j], list(col))
    atoms = tuple(sorted(cells))
    weights = tuple(cells[b][0] for b in atoms)
    grid = tuple(tuple(cells[b][1][i] for b in atoms) for i in range(n))
    target = DiscreteDistribution(atoms, weights)
    return SmpcTriple._trusted(source, TransitionMatrix._trusted(tuple(map(integer_row, grid))), target)
