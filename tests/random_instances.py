"""Seeded random instances that only the tests draw.

Garbling triples, split instances, mean-shifted targets, small LPs and
piecewise-linear utilities, built on ``mpcmix.randgen``'s distributions and
garblings. Every generator takes an explicit ``random.Random``, so a seed
reproduces the same instances.
"""

from fractions import Fraction
from random import Random

from linalg_fraction_reference import null_space_vector, rank
from lp_fraction_reference import GeneralLP, standard_form
from mpcmix.distributions import DiscreteDistribution, SmpcTriple, apply_transition
from mpcmix.persuasion import PiecewiseLinearFn
from mpcmix.randgen import random_distribution, random_transition

MAX_LP_SIZE = 8
"""Largest nvars + nrows of a generated LP."""


def random_smpc(rng: Random, n: int, m: int) -> SmpcTriple:
    """Random garbling triple; the target may have fewer than m atoms."""
    return apply_transition(random_distribution(rng, n), random_transition(rng, n, m))


def random_split_instance(rng: Random, n: int, generic: bool = True) -> SmpcTriple:
    """Triple with exactly n+1 target atoms and a unique null direction.

    With ``generic`` set, degenerate certificates are resampled away: every
    null coefficient nonzero and a strict maximizer of |c| inside each sign
    group. Ties make more than two columns zeroable (the tied ones empty
    together), which the uniqueness probe treats separately.

    Raises ``ValueError`` before drawing anything when n < 2: one source atom
    sends every column to the same barycenter, so no target has two atoms.
    """
    if n < 2:
        raise ValueError(f"a split instance needs at least 2 source atoms, got n = {n}")
    while True:
        triple = random_smpc(rng, n, n + 1)
        if len(triple.target.atoms) != n + 1:
            continue
        if rank(triple.transition) != n:
            continue
        if generic:
            c = null_space_vector(triple.transition)
            if any(v == 0 for v in c):
                continue
            positives = sorted(abs(v) for v in c if v > 0)
            negatives = sorted(abs(v) for v in c if v < 0)
            if len(positives) >= 2 and positives[-1] == positives[-2]:
                continue
            if len(negatives) >= 2 and negatives[-1] == negatives[-2]:
                continue
        return triple


def perturb_mean(rng: Random, dist: DiscreteDistribution) -> DiscreteDistribution:
    """Shift the top atom upward: same shape, strictly larger mean."""
    delta = Fraction(1, rng.randint(1, 9))
    atoms = dist.atoms[:-1] + (dist.atoms[-1] + delta,)
    return DiscreteDistribution(atoms, dist.weights)


def random_lp(rng: Random) -> GeneralLP:
    """Random LP with nvars + nrows <= MAX_LP_SIZE and a bounded feasible set.

    The first row caps the variable sum, so no generated instance is
    unbounded; feasibility varies with the remaining random rows. A row drawn
    as a x >= b is stated as -a x <= -b, since ``GeneralLP`` has no ``ge``
    sense.
    """
    nvars = rng.randint(1, MAX_LP_SIZE // 2)
    nextra = rng.randint(1, MAX_LP_SIZE - nvars - 1)
    rows = [[Fraction(1)] * nvars]
    rhs = [Fraction(rng.randint(1, 8))]
    senses = ["le"]
    for _ in range(nextra):
        row = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
        b = Fraction(rng.randint(-4, 6))
        sense = rng.choice(["le", "ge", "eq"])
        if sense == "ge":
            row, b, sense = [-x for x in row], -b, "le"
        rows.append(row)
        rhs.append(b)
        senses.append(sense)
    objective = tuple(Fraction(rng.randint(-4, 4)) for _ in range(nvars))
    return standard_form(objective, rows, rhs, senses)


def random_piecewise_linear(
    rng: Random, lo: Fraction, hi: Fraction, interior: int = 2
) -> PiecewiseLinearFn:
    """Random piecewise-linear function whose domain is exactly [lo, hi].

    Raises ``ValueError`` before drawing anything when lo >= hi and
    ``interior`` >= 1: no interior knot fits.
    """
    if interior >= 1 and lo >= hi:
        raise ValueError(f"interior knots need lo < hi, got [{lo}, {hi}]")
    xs: set[Fraction] = set()
    while len(xs) < interior:
        den = rng.randint(2, 6)
        num = rng.randint(1, den - 1)
        x = lo + (hi - lo) * Fraction(num, den)
        if lo < x < hi:
            xs.add(x)
    knot_xs = sorted({lo, hi} | xs)
    knots = tuple(
        (x, Fraction(rng.randint(-8, 8), rng.randint(1, 3))) for x in knot_xs
    )
    return PiecewiseLinearFn(knots)
