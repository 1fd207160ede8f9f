"""Benchmark of the mpcmix command line: seeded corpora, exact checks, timings.

    python3 bench/run.py --workload decompose-wide --seed 1 --seconds 15 --trace 0

Each operation is one in-process call of ``mpcmix.cli.main`` with an input
file and an ``-o`` output file, so interpreter start-up is not timed. One
client runs one operation at a time (a closed loop) over whole passes of the
corpus until ``--seconds`` have passed. The first output of every corpus item
is checked by ``checker``, which does not import mpcmix; later passes must
write byte-identical output. ``--trace 1`` instead runs a warm-up pass and
then an untraced, a traced and another untraced pass, and reports per-layer
metrics. The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import checker
import corpus
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORT_REPEATS = 9
REFERENCE_SECONDS = 0.0004


class SpeedClock:
    """Wall time rescaled to a fixed machine speed.

    Other processes on a shared machine slow all Python code, by up to about
    two times in stretches of a few seconds. So the benchmark times a fixed
    computation of its own at every operation boundary, and multiplies each
    operation's wall time by ``REFERENCE_SECONDS`` over the mean of the
    reference times just before and after it. The result reads as seconds on
    a machine where the reference computation takes ``REFERENCE_SECONDS``.
    """

    def __init__(self):
        self.last = self.sample()
        self.factors: list[float] = []

    @staticmethod
    def sample():
        """Fastest of three timed reference runs; garbage collection is held off."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                start = time.perf_counter()
                _reference_work()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return min(times)

    def scale(self, elapsed):
        """``elapsed`` wall seconds that just ended, at the reference speed."""
        now = self.sample()
        factor = 2 * REFERENCE_SECONDS / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return elapsed * factor


def _reference_work():
    """Exact elimination on a fixed 5x7 rational matrix: the same kind of work as mpcmix's."""
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 1) for j in range(7)] for i in range(5)]
    for c in range(5):
        pivot = rows[c]
        for r in range(5):
            if r != c and rows[r][c]:
                f = rows[r][c] / pivot[c]
                rows[r] = [x - f * y for x, y in zip(rows[r], pivot)]
    return rows


def fresh_cli():
    """Import ``mpcmix.cli`` from this checkout's ``src``, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "mpcmix" or k.startswith("mpcmix.")]:
        del sys.modules[name]
    cli = importlib.import_module("mpcmix.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mpcmix was imported from {cli.__file__}, not from {SRC}")
    return cli


def write_inputs(items, work):
    """One input file per corpus item."""
    inputs = []
    for k, (_, payload, _) in enumerate(items):
        path = work / f"in-{k}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        inputs.append(path)
    return inputs


def timed_imports(clock):
    """The CLI, and the seconds of each of ``IMPORT_REPEATS`` fresh imports at the reference speed."""
    times = []
    for _ in range(IMPORT_REPEATS):
        gc.collect()  # frees the modules of the last import, so they do not add to the peak
        start = time.perf_counter()
        cli = fresh_cli()
        times.append(clock.scale(time.perf_counter() - start))
    gc.collect()
    return cli, times


class Runner:
    """Runs corpus items through the CLI and checks what they write."""

    def __init__(self, main, items, inputs, work, clock):
        self.main = main
        self.clock = clock
        self.items = items
        self.inputs = inputs
        self.outputs = [work / f"out-{k}.json" for k in range(len(items))]
        # Checked outputs stay on disk, so the harness does not hold them in memory.
        self.kept = [work / f"ok-{k}.json" for k in range(len(items))]
        # Size and largest bit length of each item's checked output.
        self.verified: list[tuple[int, int] | None] = [None] * len(items)
        self.components: dict[int, int] = {}
        self.problems: list[str] = []
        self.wrong = 0
        self.tracer = None

    def run_op(self, k):
        """Seconds spent in the CLI at the reference speed, and whether it succeeded."""
        command = self.items[k][0]
        argv = [command, str(self.inputs[k]), "-o", str(self.outputs[k])]
        if self.tracer is not None:
            self.tracer.op = k
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.main(argv)
            except Exception as exc:  # an escaped traceback is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            elapsed = self.clock.scale(time.perf_counter() - start)
        if code != 0:
            self.problems.append(f"item {k} ({command}) exit {code}: {stderr.getvalue().strip()}")
            return elapsed, False
        return elapsed, self._verify(k)

    def _verify(self, k):
        command, payload, expect = self.items[k]
        data = self.outputs[k].read_bytes()
        if self.verified[k] is not None:
            if data == self.kept[k].read_bytes():
                return True
            reason = "output differs from the verified output of the same input"
        else:
            try:
                out = json.loads(data)
                count = checker.check(command, payload, out, expect)
            except (checker.CheckError, ValueError) as exc:
                reason = str(exc)
            else:
                bits = max((max(q.numerator.bit_length(), q.denominator.bit_length())
                            for q in _rationals(out)), default=0)
                self.kept[k].write_bytes(data)
                self.verified[k] = (len(data), bits)
                if count is not None:
                    self.components[k] = count
                return True
        self.wrong += 1
        self.problems.append(f"item {k} ({command}) wrong output: {reason}")
        return False

    def run_pass(self):
        times, failed = [], 0
        for k in range(len(self.items)):
            elapsed, ok = self.run_op(k)
            times.append(elapsed)
            failed += not ok
        return times, failed


def self_test(main, work):
    """Run the checker's self-test cases through the CLI; returns problems found."""
    outputs = []
    for k, (command, payload, _) in enumerate(checker.SELF_TEST_CASES):
        source, target = work / f"self-{k}.json", work / f"self-{k}-out.json"
        source.write_text(json.dumps(payload), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(source), "-o", str(target)])
        if code != 0:
            return [f"self-test {command} exited {code}"]
        outputs.append(json.loads(target.read_text(encoding="utf-8")))
    return checker.self_test(outputs)


def _rationals(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _rationals(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _rationals(value)
    elif isinstance(obj, str):
        try:
            yield Fraction(obj)
        except (ValueError, ZeroDivisionError):
            pass


def end_to_end(times, setups, runner):
    components = runner.components.values()
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "op/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1000, "ms"),
        # The whole process: interpreter, harness and corpus included.
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        # Outputs without a mixture count as the one-component mixture.
        "mixture_components": (statistics.fmean(components) if components else 1.0, "components/op"),
    }


def per_layer(stats, tracer, overhead_s, runner):
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    splits = get("decomposition.split_once", "calls")
    leaves = splits + get("decomposition.decompose_full", "calls")
    pivots = tracer.pivots
    written = [entry for entry in runner.verified if entry is not None]
    return {
        "decomposition.decompose_full.s": (get("decomposition.decompose_full", "s"), "s"),
        "decomposition.split_once.calls": (splits, "count"),
        "decomposition.split_once.self_s": (get("decomposition.split_once", "self_s"), "s"),
        "decomposition.leaves": (leaves, "count"),
        "decomposition.useful_ratio": (tracer.components / leaves if leaves else 0.0, "ratio"),
        "linalg.null_space_vector.calls": (get("linalg.null_space_vector", "calls"), "count"),
        "linalg.null_space_vector.s": (get("linalg.null_space_vector", "s"), "s"),
        "distributions.apply_transition.calls": (get("distributions.apply_transition", "calls"), "count"),
        "distributions.apply_transition.s": (get("distributions.apply_transition", "s"), "s"),
        "distributions.mpc_violation.s": (get("distributions.mpc_violation", "s"), "s"),
        "distributions.from_json.s": (get("distributions.from_json", "s"), "s"),
        "distributions.SmpcTriple.calls": (get("distributions.SmpcTriple", "calls"), "count"),
        "distributions.SmpcTriple.s": (get("distributions.SmpcTriple", "s"), "s"),
        "lp.solve.calls": (get("lp.solve", "calls"), "count"),
        "lp.solve.s": (get("lp.solve", "s"), "s"),
        "lp.pivots": (pivots, "count"),
        "lp.ms_per_pivot": (get("lp.solve", "s") * 1000 / pivots if pivots else 0.0, "ms/pivot"),
        "lp.tableau_cells": (tracer.tableau_cells, "count"),
        "persuasion.solve_linear_persuasion.s": (get("persuasion.solve_linear_persuasion", "s"), "s"),
        "persuasion.reduce_support.s": (get("persuasion.reduce_support", "s"), "s"),
        "cli.serialize_s": (get("cli.serialize", "s"), "s"),
        "cli.output_bytes": (sum(size for size, _ in written), "bytes"),
        "cli.output_max_bits": (max((bits for _, bits in written), default=0), "bits"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def measure(args, work):
    items = corpus.build(args.workload, args.seed)
    inputs = write_inputs(items, work)
    clock = SpeedClock()
    cli, setups = timed_imports(clock)
    runner = Runner(cli.main, items, inputs, work, clock)
    if args.trace:
        _, failed = runner.run_pass()  # warm-up; also checks every output
        before, before_failed = runner.run_pass()
        tracer = spans.Tracer()
        tracer.install()
        runner.main, runner.tracer = tracer.wrap("cli.main", cli.main), tracer
        try:
            traced, traced_failed = runner.run_pass()
        finally:
            tracer.uninstall()
            runner.main, runner.tracer = cli.main, None
        traced_factors = clock.factors[-len(items):]
        after, after_failed = runner.run_pass()
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.json")
        attempted = 4 * len(items)
        failed += before_failed + traced_failed + after_failed
        stats = tracer.summary(traced_factors)
        # The untraced passes bracket the traced one, so a slow drift cancels.
        overhead = sum(traced) - (sum(before) + sum(after)) / 2
        metrics = per_layer(stats, tracer, overhead, runner)
    else:
        times, failed = [], 0
        start = time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            pass_times, pass_failed = runner.run_pass()
            times += pass_times
            failed += pass_failed
        attempted = len(times)
        metrics = end_to_end(times, setups, runner)
        wall = [t / f for t, f in zip(times, clock.factors[-len(times):])]
        print(f"{args.workload:16} wall clock: {len(wall) / sum(wall):.4g} op/s, "
              f"p50 {statistics.median(wall) * 1000:.4g} ms, "
              f"p90 {statistics.quantiles(wall, n=10)[8] * 1000:.4g} ms, "
              f"median speed factor {statistics.median(clock.factors):.3f}")
    problems = self_test(cli.main, work)
    for line in runner.problems[:20] + problems:
        print(line, file=sys.stderr)
    return {
        "correct": runner.wrong == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mpcmix" / "cli.py").is_file():
        print(f"no mpcmix sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:16} {name:40} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:16} attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
