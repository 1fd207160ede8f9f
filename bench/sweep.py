"""Scaling sweeps for the benchmark README, printed as markdown tables.

    python3 bench/sweep.py

The first table is ``decompose`` time and ``split_once`` calls against m - n
at n = 3; the second is ``find-witness`` time and simplex pivots against n*m
on garbled (positive) pairs. Each row is the median over ``INSTANCES``
seeded instances, run through the CLI in process like the benchmark, with
times at the benchmark's reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import time
from random import Random

import corpus
import run
import spans
from checker import dist_json, rows_json

SEED = 1
INSTANCES = 5
DECOMPOSE_GAPS = range(1, 10)
WITNESS_SHAPES = [(2, 3), (3, 4), (3, 6), (4, 6), (5, 6), (5, 8), (6, 8), (6, 10), (8, 10)]


def _timed(cli, clock, command, payload, work):
    """Seconds at the reference speed for one CLI call."""
    source, target = work / "sweep-in.json", work / "sweep-out.json"
    source.write_text(json.dumps(payload), encoding="utf-8")
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main([command, str(source), "-o", str(target)])
        elapsed = clock.scale(time.perf_counter() - start)
    if code != 0:
        raise RuntimeError(f"{command} exited {code}")
    return elapsed


def _counted(cli, command, payload, work):
    """Calls of split_once and simplex pivots for one traced run of the command."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        _timed(cli, run.SpeedClock(), command, payload, work)
    finally:
        tracer.uninstall()
    splits = sum(1 for span in tracer.spans if span.name == "decomposition.split_once")
    return splits, tracer.pivots


def sweep(cli, rng, work):
    clock = run.SpeedClock()
    print("| m - n | m | decompose ms (median) | split_once calls (median) |")
    print("|---|---|---|---|")
    for gap in DECOMPOSE_GAPS:
        times, splits = [], []
        for _ in range(INSTANCES):
            source, rows, _ = corpus._garbled_pair(rng, 3, 3 + gap)
            payload = {"source": dist_json(source), "transition": rows_json(rows)}
            times.append(_timed(cli, clock, "decompose", payload, work))
            splits.append(_counted(cli, "decompose", payload, work)[0])
        print(f"| {gap} | {3 + gap} | {statistics.median(times) * 1000:.1f} | {statistics.median(splits):g} |")
    print()
    print("| n | m | n*m | find-witness ms (median) | pivots (median) |")
    print("|---|---|---|---|---|")
    for n, m in WITNESS_SHAPES:
        times, pivots = [], []
        for _ in range(INSTANCES):
            source, _, target = corpus._garbled_pair(rng, n, m)
            payload = {"source": dist_json(source), "target": dist_json(target)}
            times.append(_timed(cli, clock, "find-witness", payload, work))
            pivots.append(_counted(cli, "find-witness", payload, work)[1])
        print(f"| {n} | {m} | {n * m} | {statistics.median(times) * 1000:.1f} | {statistics.median(pivots):g} |")


def main():
    if not (run.SRC / "mpcmix" / "cli.py").is_file():
        print(f"no mpcmix sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    work = run.WORK / "sweep"
    work.mkdir(parents=True, exist_ok=True)
    try:
        sweep(run.fresh_cli(), Random(f"sweep:{SEED}"), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
