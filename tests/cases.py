"""Shared exact fixtures: the worked 4-atom split and the two-seller game."""

from fractions import Fraction
from math import gcd, lcm

from mpcmix import DiscreteDistribution, PiecewiseLinearFn, SmpcTriple, TransitionMatrix


def dist(atoms, weights):
    return DiscreteDistribution.from_rows((atoms, weights))


def point_mass(atom):
    """All mass at ``atom``, read as ``parse_rational`` reads it."""
    return dist([atom], ["1"])


def mean(dist):
    """The mean of ``dist``: sum of w * a."""
    return sum(w * a for w, a in zip(dist.weights, dist.atoms))


def column(matrix, j):
    """Column ``j`` of ``matrix`` as a tuple of ``Fraction`` values."""
    return tuple(row[j] for row in matrix.entries)


def coprime_integers(vector):
    """A rational vector times the positive scale that makes it coprime integers."""
    scale = lcm(*(v.denominator for v in vector))
    ints = [v.numerator * (scale // v.denominator) for v in vector]
    g = gcd(*ints)
    return [x // g for x in ints]


def identity(n):
    """The n x n identity garbling."""
    return TransitionMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def integrated_cdf(dist, t):
    """Integral of the cdf of ``dist`` from -inf to t: sum of w * max(t - a, 0)."""
    return sum((w * (t - a) for a, w in zip(dist.atoms, dist.weights) if a < t), Fraction(0))


def tm(rows):
    return TransitionMatrix.from_rows(rows)


# Three-atom prior garbled onto four atoms; the canonical split example.
PRIOR = dist(["0", "1/2", "1"], ["3/10", "3/10", "2/5"])
GARBLING = tm(
    [
        ["2/3", "1/3", "0", "0"],
        ["1/3", "0", "1/3", "1/3"],
        ["0", "1/4", "1/4", "1/2"],
    ]
)
TARGET = dist(["1/6", "1/2", "3/4", "5/6"], ["3/10", "1/5", "1/5", "3/10"])

# Unique null direction of GARBLING's columns, first entry normalized to 1.
NULL_COEFFS = (Fraction(1), Fraction(-2), Fraction(-4), Fraction(3))

ALPHA = Fraction(4, 7)

# Zeroing column 2 (0-based); embedded form keeps the emptied column.
LEFT_EMBEDDED = tm(
    [
        ["5/6", "1/6", "0", "0"],
        ["5/12", "0", "0", "7/12"],
        ["0", "1/8", "0", "7/8"],
    ]
)
# Zeroing column 3.
RIGHT_EMBEDDED = tm(
    [
        ["4/9", "5/9", "0", "0"],
        ["2/9", "0", "7/9", "0"],
        ["0", "5/12", "7/12", "0"],
    ]
)

LEFT_TARGET = dist(["1/6", "1/2", "5/6"], ["3/8", "1/10", "21/40"])
# The last atom is forced to 3/4 by the right garbling's third column:
# (3/20 * 7/9 + 2/5 * 7/12) / (7/15) = (21/60) / (7/15) = 3/4.
RIGHT_TARGET = dist(["1/6", "1/2", "3/4"], ["1/5", "1/3", "7/15"])

LEFT_REDUCED = tm(
    [
        ["5/6", "1/6", "0"],
        ["5/12", "0", "7/12"],
        ["0", "1/8", "7/8"],
    ]
)
RIGHT_REDUCED = tm(
    [
        ["4/9", "5/9", "0"],
        ["2/9", "0", "7/9"],
        ["0", "5/12", "7/12"],
    ]
)


def worked_triple() -> SmpcTriple:
    return SmpcTriple(PRIOR, GARBLING, TARGET)


def embedded(component, atoms):
    """The component's transition as a ``Fraction`` grid on ``atoms``: each
    column at the position of its atom, zero columns elsewhere. Kept apart
    from ``Mixture.recompose`` so that tests can sum placed columns themselves."""
    grid = [[Fraction(0)] * len(atoms) for _ in component.source.atoms]
    for j, atom in enumerate(component.target.atoms):
        for row, x in zip(grid, column(component.transition, j)):
            row[atoms.index(atom)] = x
    return grid


# Two sellers, i.i.d. quality prior on {0, 1/2, 3/4}; candidate equilibrium cdf.
DUEL_PRIOR = dist(["0", "1/2", "3/4"], ["1/6", "1/2", "1/3"])
DUEL_CDF = PiecewiseLinearFn.from_pairs([("0", "0"), ("1/2", "1/3"), ("3/4", "1")])
DUEL_VALUE = Fraction(1, 2)
