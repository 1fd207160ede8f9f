"""Time ``decompose_full`` against m - n, and count the peel's walk work on one corpus pass.

    python3 tools/peel_scaling.py [--src PATH] [--instances 5] [--repeats 3]

``--src`` is the ``src`` directory of the checkout to measure (default: this
one's), so two checkouts can be compared with the same script. The output is
one JSON object:

- ``decompose_ms``: for each shape n x m, the median over ``--instances``
  seeded triples, a ``randgen.random_distribution`` garbled through a
  ``randgen.random_transition`` drawn after it from the same stream, of the
  best of ``--repeats`` calls of ``decompose_full``, in milliseconds of wall
  time.
- ``decompose_wide_pass``: ``decompose_full`` over every item of the
  benchmark's ``decompose-wide`` corpus at seed 1. In one pass,
  ``walk_steps`` counts the walk's steps (calls of ``_Basis.dependency``)
  and ``basis_drops`` the columns dropped from a basis state (calls of
  ``_Basis.drop``, in walks and in the remainder); ``walk_ms`` and
  ``decompose_ms`` are the medians over ``--repeats`` passes of the time
  inside ``_walk_to_vertex`` and inside ``decompose_full``.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SHAPES = [(6, 20), (6, 40), (10, 40), (10, 80), (20, 80)]


def _best_ms(fn, arg, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best * 1000


def sweep(instances, repeats):
    from mpcmix.decomposition import decompose_full
    from mpcmix.distributions import apply_transition
    from mpcmix.randgen import random_distribution, random_transition

    def triple(rng, n, m):
        return apply_transition(random_distribution(rng, n), random_transition(rng, n, m))

    table = []
    for n, m in SHAPES:
        times = [_best_ms(decompose_full, triple(Random(f"{n}x{m}:{k}"), n, m), repeats) for k in range(instances)]
        table.append({"n": n, "m": m, "m_minus_n": m - n, "ms": round(statistics.median(times), 3)})
    return table


def corpus_pass(repeats):
    import corpus
    from mpcmix import decomposition
    from mpcmix.distributions import DiscreteDistribution, TransitionMatrix, apply_transition

    triples = [
        apply_transition(
            DiscreteDistribution.from_json(payload["source"]),
            TransitionMatrix.from_json(payload["transition"]),
        )
        for _, payload, _ in corpus.build("decompose-wide", 1)
    ]
    basis = decomposition._Basis
    counts = {"dependency": 0, "drop": 0}
    walk = 0.0
    walk_to_vertex = decomposition._walk_to_vertex

    def counted(name):
        method = getattr(basis, name)

        @functools.wraps(method)
        def wrapper(*args):
            counts[name] += 1
            return method(*args)

        return wrapper

    @functools.wraps(walk_to_vertex)
    def timed(*args):
        nonlocal walk
        start = time.perf_counter()
        try:
            return walk_to_vertex(*args)
        finally:
            walk += time.perf_counter() - start

    originals = {name: getattr(basis, name) for name in counts}
    for name in counts:
        setattr(basis, name, counted(name))
    for triple in triples:
        decomposition.decompose_full(triple)
    for name, method in originals.items():
        setattr(basis, name, method)

    decomposition._walk_to_vertex = timed
    walks, totals = [], []
    for _ in range(repeats):
        walk = 0.0
        start = time.perf_counter()
        for triple in triples:
            decomposition.decompose_full(triple)
        totals.append(time.perf_counter() - start)
        walks.append(walk)
    decomposition._walk_to_vertex = walk_to_vertex
    return {
        "operations": len(triples),
        "walk_steps": counts["dependency"],
        "basis_drops": counts["drop"],
        "walk_ms": round(statistics.median(walks) * 1000, 2),
        "decompose_ms": round(statistics.median(totals) * 1000, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    print(json.dumps({
        "python": sys.version.split()[0],
        "decompose_ms": sweep(args.instances, args.repeats),
        "decompose_wide_pass": corpus_pass(args.repeats),
    }, indent=2))


if __name__ == "__main__":
    main()
