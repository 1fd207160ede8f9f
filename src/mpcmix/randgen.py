"""Seeded random garbling instances, the stream of the CLI's ``gen-random``.

Atoms are drawn as distinct small-denominator rationals, weights as random
positive integers normalized to total 1, so every generated object stays
exact end to end. All generators take an explicit ``random.Random`` so a seed
reproduces the corpus byte for byte. The generators that only tests draw,
garbling triples, split instances, LPs and utilities among them, live in the
tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from random import Random

from .distributions import DiscreteDistribution, TransitionMatrix

SPREAD = 12
"""Largest |a| of a generated atom a/b."""

MAX_DENOMINATOR = 5
"""Largest b of a generated atom a/b."""


def random_distribution(rng: Random, n: int) -> DiscreteDistribution:
    """``n`` distinct atoms a/b with |a| <= SPREAD and 1 <= b <= MAX_DENOMINATOR.

    Raises ``ValueError`` before drawing anything when that pool holds fewer
    than ``n`` distinct values.
    """
    # One distinct value per pair (a, b) in lowest terms, 0 as 0/1.
    pool = sum(gcd(a, b) == 1 for a in range(-SPREAD, SPREAD + 1) for b in range(1, MAX_DENOMINATOR + 1))
    if n > pool:
        raise ValueError(
            f"n = {n} exceeds the {pool} distinct atoms a/b with |a| <= {SPREAD}, "
            f"1 <= b <= {MAX_DENOMINATOR}"
        )
    atoms: set[Fraction] = set()
    while len(atoms) < n:
        atoms.add(Fraction(rng.randint(-SPREAD, SPREAD), rng.randint(1, MAX_DENOMINATOR)))
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return DiscreteDistribution(tuple(sorted(atoms)), tuple(Fraction(w, total) for w in raw))


def random_transition(rng: Random, n: int, m: int) -> TransitionMatrix:
    grid = []
    for _ in range(n):
        row = [rng.randint(0, 6) for _ in range(m)]
        while sum(row) == 0:
            row = [rng.randint(0, 6) for _ in range(m)]
        total = sum(row)
        grid.append(tuple(Fraction(x, total) for x in row))
    return TransitionMatrix(tuple(grid))
