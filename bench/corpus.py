"""Seeded corpora for the benchmark workloads.

Every instance comes from ``random.Random(seed)`` and the benchmark's own
exact code in ``checker``; mpcmix's ``randgen`` is not used, so changing it
cannot change a workload. Shapes are fixed per workload and only the numbers
depend on the seed, which keeps the cost of a corpus steady from seed to seed.
Each item is ``(command, payload, expect)``; ``expect`` holds facts a check
needs that the payload cannot tell it, such as the duel's known optimum.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from checker import convex_order, dist_json, garble, mean, rows_json

# (source atoms n, target atoms m) for decompose with how often each
# appears; the split tree has 2^(m-n) - 1 internal nodes, so m - n sets the
# cost. The classes hold about 30%, 40%, 10% and 20% of the items, so the
# median falls mid-way through the (4, 8) class and p90 mid-way through the
# (5, 11) class, not on a class boundary that moves with the seed.
DECOMPOSE_SHAPES = [((3, 6), 39), ((4, 8), 52), ((5, 10), 13), ((5, 11), 26)]

# (n, m) for find-witness with how often each appears, n*m from 12 to 40.
# Each positive pair is also run reversed, and every fourth pair adds a
# mean-shifted negative. The classes split the items about 30/40/10/20% like
# DECOMPOSE_SHAPES, for the same reason.
WITNESS_SHAPES = [((3, 4), 36), ((4, 6), 48), ((4, 7), 12), ((5, 8), 24)]

# (prior size n, how many) for persuasion; each count gives one
# solve-persuasion and one check-deviation instance, each on its own prior,
# and the duel instance runs once per pass. The classes split the items
# about 30/40/30%: the median falls mid-way through n = 4, and p90 inside
# n = 5, the largest class that keeps a pass short.
PERSUASION_SIZES = [(3, 30), (4, 40), (5, 30)]

# (n, m) of the large certify-wide triples with how often each appears; each
# triple runs verify-smpc, apply, is-mpc on the garbled pair and is-mpc on
# the reversed pair.
CERTIFY_SHAPES = [((20, 30), 8), ((30, 45), 8), ((40, 60), 6), ((50, 80), 4), ((60, 100), 2)]

# The two-seller duel: i.i.d. prior on {0, 1/2, 3/4} against the candidate
# equilibrium cdf; the best deviation earns exactly the equilibrium value 1/2.
DUEL = {
    "source": {"atoms": ["0", "1/2", "3/4"], "weights": ["1/6", "1/2", "1/3"]},
    "opponent_cdf": {"knots": [["0", "0"], ["1/2", "1/3"], ["3/4", "1"]]},
    "equilibrium_value": "1/2",
    "candidates": ["0", "1/2", "3/4"],
}


def _split(rng, k, total, positive):
    """k integers summing to ``total``, as fractions of it; all positive if asked."""
    cuts = sorted(rng.sample(range(1, total), k - 1) if positive else [rng.randint(0, total) for _ in range(k - 1)])
    return tuple(Fraction(b - a, total) for a, b in zip([0] + cuts, cuts + [total]))


def _distribution(rng, n):
    """Atoms in sixths and weights in sixtieths, so numbers have the same size on every seed."""
    atoms = set()
    while len(atoms) < n:
        atoms.add(Fraction(rng.randint(-72, 72), 6))
    return tuple(sorted(atoms)), _split(rng, n, 60, positive=True)


def _garbled_pair(rng, n, m):
    """Source, transition (rows in sixtieths) and a target with exactly m atoms."""
    while True:
        source = _distribution(rng, n)
        target, grid = garble(source, [_split(rng, m, 60, positive=False) for _ in range(n)])
        if len(target[0]) == m:
            return source, grid, target


def _wide_triple(rng, n, m):
    """A large triple whose denominators have the same size whatever the seed.

    Weights are parts of the prime 1000003 and transition rows parts of the
    prime 999983, so every denominator is a product of the same few factors.
    """
    while True:
        atoms = sorted(set(Fraction(rng.randint(-10**6, 10**6), 1000) for _ in range(n)))
        if len(atoms) < n:
            continue
        source = (tuple(atoms), _split(rng, n, 1000003, positive=True))
        target, grid = garble(source, [_split(rng, m, 999983, positive=False) for _ in range(n)])
        if len(target[0]) == m:
            return source, grid, target


def decompose_wide(rng):
    items = []
    for (n, m), count in DECOMPOSE_SHAPES:
        for _ in range(count):
            source, rows, _ = _garbled_pair(rng, n, m)
            items.append(("decompose", {"source": dist_json(source), "transition": rows_json(rows)}, {}))
    return items


def _shift_top(rng, dist):
    atoms, weights = dist
    return atoms[:-1] + (atoms[-1] + Fraction(1, rng.randint(1, 9)),), weights


def convex_order_pairs(rng):
    items = []
    shapes = [shape for shape, count in WITNESS_SHAPES for _ in range(count)]
    for k, (n, m) in enumerate(shapes):
        while True:
            source, _, target = _garbled_pair(rng, n, m)
            if not convex_order(target, source):
                break
        pairs = [(source, target), (target, source)]
        if k % 4 == 0:
            pairs.append((source, _shift_top(rng, target)))
        for s, t in pairs:
            items.append(("find-witness", {"source": dist_json(s), "target": dist_json(t)}, {}))
    return items


def _knots(rng, lo, hi, interior, ys):
    xs = set()
    while len(xs) < interior:
        den = rng.randint(2, 7)
        xs.add(lo + (hi - lo) * Fraction(rng.randint(1, den - 1), den))
    xs = sorted(xs | {lo, hi})
    return [[str(x), str(y)] for x, y in zip(xs, ys(len(xs)))]


def _cdf_values(rng, count):
    steps = [rng.randint(0, 5) for _ in range(count - 1)]
    steps[rng.randrange(count - 1)] += 1
    total = sum(steps)
    values, acc = [Fraction(0)], 0
    for step in steps:
        acc += step
        values.append(Fraction(acc, total))
    return values


def persuasion(rng):
    items = [("check-deviation", DUEL, {"max_payoff": "1/2"})]
    for n, count in PERSUASION_SIZES:
        for _ in range(count):
            source = _distribution(rng, n)
            lo, hi = source[0][0], source[0][-1]
            utility = _knots(rng, lo, hi, 3, lambda c: [Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(c)])
            candidates = sorted(set(source[0]) | {mean(source)} | {Fraction(x) for x, _ in utility})
            items.append(("solve-persuasion", {
                "source": dist_json(source),
                "utility": {"knots": utility},
                "candidates": [str(c) for c in candidates],
            }, {}))
            source = _distribution(rng, n)
            lo, hi = source[0][0], source[0][-1]
            cdf = _knots(rng, lo, hi, 3, lambda c: _cdf_values(rng, c))
            candidates = sorted(set(source[0]) | {mean(source)})
            items.append(("check-deviation", {
                "source": dist_json(source),
                "opponent_cdf": {"knots": cdf},
                "equilibrium_value": str(Fraction(rng.randint(1, 19), 20)),
                "candidates": [str(c) for c in candidates],
            }, {}))
    return items


def certify_wide(rng):
    items = []
    for n, m in [shape for shape, count in CERTIFY_SHAPES for _ in range(count)]:
        source, rows, target = _wide_triple(rng, n, m)
        triple = {"source": dist_json(source), "transition": rows_json(rows), "target": dist_json(target)}
        items.append(("verify-smpc", triple, {}))
        items.append(("apply", {"source": triple["source"], "transition": triple["transition"]}, {}))
        items.append(("is-mpc", {"source": triple["source"], "target": triple["target"]}, {}))
        items.append(("is-mpc", {"source": triple["target"], "target": triple["source"]}, {}))
    return items


WORKLOADS = {
    "decompose-wide": decompose_wide,
    "convex-order": convex_order_pairs,
    "persuasion": persuasion,
    "certify-wide": certify_wide,
}


def build(workload, seed):
    """The corpus of one workload; equal seeds give equal corpora."""
    return WORKLOADS[workload](Random(f"{workload}:{seed}"))
