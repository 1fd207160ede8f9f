"""Spans around calls into mpcmix's layers, recorded from outside the package.

``Tracer.install`` swaps each traced function for a wrapper at every module
attribute that holds it, which is where callers look it up (``split_once`` in
``mpcmix.decomposition``, ``solve`` in ``mpcmix.lp`` and ``mpcmix.persuasion``,
and so on), and swaps traced methods on their classes. Spans stay in memory
until ``Tracer.write``; ``summary`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent op")

# (module, function, span name) for free functions.
FUNCTIONS = (
    ("decomposition", "decompose_full", "decomposition.decompose_full"),
    ("decomposition", "split_once", "decomposition.split_once"),
    ("linalg", "null_space_vector", "linalg.null_space_vector"),
    ("distributions", "apply_transition", "distributions.apply_transition"),
    ("distributions", "mpc_violation", "distributions.mpc_violation"),
    ("lp", "solve", "lp.solve"),
    ("persuasion", "solve_linear_persuasion", "persuasion.solve_linear_persuasion"),
    ("persuasion", "reduce_support", "persuasion.reduce_support"),
    ("cli", "_write_output", "cli.serialize"),
)

# (module, class, method, span name). SmpcTriple's __post_init__ is the
# certifying part of its constructor; the trusted fast path skips it.
METHODS = (
    ("distributions", "DiscreteDistribution", "from_json", "distributions.from_json"),
    ("distributions", "TransitionMatrix", "from_json", "distributions.from_json"),
    ("distributions", "SmpcTriple", "__post_init__", "distributions.SmpcTriple"),
    ("distributions", "DiscreteDistribution", "to_json", "cli.serialize"),
    ("distributions", "TransitionMatrix", "to_json", "cli.serialize"),
    ("distributions", "SmpcTriple", "to_json", "cli.serialize"),
    ("decomposition", "Mixture", "to_json", "cli.serialize"),
    ("persuasion", "PiecewiseLinearFn", "to_json", "cli.serialize"),
)


class _TracedJson:
    """Stands in for the ``json`` module inside ``mpcmix.cli``; only dumps is traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self.pivots = 0
        self.tableau_cells = 0
        self.components = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _count_lp(self, args, outcome):
        lp = args[0]
        rows = lp.constraint_matrix.rows
        self.pivots += outcome.pivots
        # Dense initial tableau: variables plus one slack or artificial per row.
        self.tableau_cells += rows * (lp.constraint_matrix.cols + rows)

    def _count_mixture(self, args, mixture):
        self.components += len(mixture.components)

    def install(self):
        """Wrap every traced name that the loaded mpcmix package defines."""
        package = "mpcmix"
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        hooks = {"lp.solve": self._count_lp, "decomposition.decompose_full": self._count_mixture}
        for module_name, attr, name in FUNCTIONS:
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)
        for module_name, class_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(f"{package}.{module_name}"), class_name, None)
            raw = getattr(cls, "__dict__", {}).get(attr)
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif callable(raw):
                self._set(cls, attr, self.wrap(name, raw))
        cli = sys.modules.get(f"{package}.cli")
        if cli is not None and getattr(cli, "json", None) is json:
            self._set(cli, "json", _TracedJson(self.wrap("cli.serialize", json.dumps)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}, handle)
            handle.write("\n")

    def summary(self, scale):
        """Per-name call counts, inclusive seconds and self seconds.

        Each span's duration is multiplied by ``scale[span.op]``. Inclusive
        time counts a span only when no enclosing span has the same name, so
        nested serialization is not counted twice. Self time is a span's
        duration minus its direct children's.
        """
        spans = self.spans
        duration = [(s.end - s.start) * scale[s.op] for s in spans]
        child_time = [0.0] * len(spans)
        for k, span in enumerate(spans):
            if span.parent is not None:
                child_time[span.parent] += duration[k]
        stats = {}
        for k, span in enumerate(spans):
            entry = stats.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration[k] - child_time[k]
            ancestor = span.parent
            while ancestor is not None and spans[ancestor].name != span.name:
                ancestor = spans[ancestor].parent
            if ancestor is None:
                entry["s"] += duration[k]
        return stats
