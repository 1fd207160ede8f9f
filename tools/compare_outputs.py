r"""Count the CLI runs whose results differ between two source trees.

    python3 tools/compare_outputs.py --src A --src B [--seeds 1 2 3]

``A`` and ``B`` are the ``src`` directories of two checkouts (the same one
twice is a determinism check). Every item of the four ``bench/corpus.py``
corpora at each seed runs through each tree's ``mpcmix.cli.main`` in this
process, and so do the ``GEN_RANDOM`` payloads, with ``--seed`` set to the
seed, since no corpus holds ``gen-random``: so all eight commands run. The
payloads are all valid, so each item also runs as variants that reach the
error paths: one with each top-level key dropped, one with each top-level
value replaced by ``"x"``, and, for each field that holds rows, two with
the last value of its last row spoiled, as ``"+1"`` (text that only
``Fraction``'s parser reads) and as ``"1/0"`` (a zero denominator), so a
row that is plain but for one value is read too, and one with every row
of every such field spelled over one unreduced denominator, twice the lcm
of that row's denominators, with bare integers left bare, so that the
reader meets rows that it must reduce. A payload whose
``candidates`` is a list also runs with that list reversed and with its
first value repeated at its end: the corpus lists are sorted and distinct,
and ``check-deviation`` must take them as a set, while ``solve-persuasion``
refuses them. A payload with a ``transition`` also runs with each of its
rows reversed: the corpus transitions are already in barycenter order with
no merges, and ``apply_transition`` must sort the reversed columns back.
Every variant above is written as ``json.dumps`` writes it, on one line. The
valid payload is also written by ``json.dumps(payload, indent=1)`` with
``"\r\n"`` line endings, and that text once more with a syntax error after
its last ``"\r\n"``, so that the input reader's newlines are compared,
and with them the offsets in the parse error.
Each input runs five times: plain, with ``--pretty``, with
``--decimals``, with ``--dec --output=-``, an abbreviated and a joined
option that only argparse reads, so that the CLI's plain-argv reader and its
argparse fallback are both compared, and with ``-o FILE``, so that the file
writer is compared too. Before each ``-o FILE`` run, FILE is filled with
``FILL``, which is longer than any output that run writes, so that the writer
must cut the file and a failed run leaves the same bytes on both sides.
Every argv is the command, the input
path, then the options. A run's result is its exit status, stdout and
stderr, and for ``-o FILE`` the file's bytes; an exception that escapes
``main`` counts as a result too. The output is one JSON object: ``runs``,
the number of runs per tree, ``differ``, the number whose results are not
equal, and ``first``, up to ten of those as
``[workload, seed, item, variant, mode]``, where the variant is ``valid``,
``-key``, ``key=x``, ``candidates reversed``, ``candidates+dup``,
``columns reversed``, ``common denominator``, ``crlf``,
``crlf syntax error`` or, for a spoiled row, its
field's path and the text, as ``transition.rows[-1][-1]=1/0``. The exit
status is 1 when any run differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from math import lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = "FILE"
"""Stands in an argv for the path of the output file."""
MODES = {
    "plain": [],
    "pretty": ["--pretty"],
    "decimals": ["--decimals"],
    "argparse": ["--dec", "--output=-"],
    "file": ["-o", OUTPUT],
}
FILL = b"x" * (1 << 18)
"""What the output file holds before each ``-o FILE`` run. The longest output
of the corpora at seeds 1-3, written plain, is about 150 KB."""
GEN_RANDOM = [{"n": 1, "m": 1}, {"n": 3, "m": 4, "count": 2}, {"n": 85, "m": 2}, {"n": 86, "m": 2}]
"""``gen-random`` payloads; 85 atoms fill the atom pool, and 86 are refused."""


def _fresh_main(src: Path):
    """``mpcmix.cli.main`` imported from ``src``, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "mpcmix" or k.startswith("mpcmix.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("mpcmix.cli")
    finally:
        sys.path.remove(str(src))
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"mpcmix was imported from {cli.__file__}, not from {src}")
    return cli.main


SPOILS = ("+1", "1/0")
"""Texts put in place of the last value of a row: one read only by ``Fraction``, one refused."""


def _row_fields(value, path=()):
    """The path of each field in ``value`` that holds a row, or a list of rows."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _row_fields(item, (*path, key))
    elif isinstance(value, list) and value and not isinstance(value[-1], dict):
        yield path


def _over_one_denominator(row: list) -> list:
    """``row`` with each slashed value spelled over twice the lcm of the row's denominators."""
    d = 2 * lcm(*(Fraction(x).denominator for x in row))
    return [f"{Fraction(x) * d}/{d}" if "/" in x else x for x in row]


def variants(payload: dict):
    """``(name, payload)`` for the payload itself, then each top-level key dropped or set to
    ``"x"``, then a list of ``candidates`` reversed and with its first value repeated, then a
    ``transition`` with each of its rows reversed, then the last value of each row-valued
    field's last row set to each of ``SPOILS``, then every row of every row-valued field
    spelled over one unreduced denominator."""
    yield "valid", payload
    for key in payload:
        yield f"-{key}", {k: v for k, v in payload.items() if k != key}
        yield f"{key}=x", {**payload, key: "x"}
    candidates = payload.get("candidates")
    if isinstance(candidates, list) and candidates:
        yield "candidates reversed", {**payload, "candidates": candidates[::-1]}
        yield "candidates+dup", {**payload, "candidates": [*candidates, candidates[0]]}
    transition = payload.get("transition")
    if isinstance(transition, dict) and isinstance(transition.get("rows"), list):
        yield "columns reversed", {**payload, "transition": {**transition, "rows": [row[::-1] for row in transition["rows"]]}}
    for path in _row_fields(payload):
        for text in SPOILS:
            spoiled = json.loads(json.dumps(payload))
            field = spoiled
            for key in path:
                field = field[key]
            nested = isinstance(field[-1], list)
            (field[-1] if nested else field)[-1] = text
            yield f"{'.'.join(path)}{'[-1]' if nested else ''}[-1]={text}", spoiled
    common = json.loads(json.dumps(payload))
    for path in _row_fields(payload):
        field = common
        for key in path[:-1]:
            field = field[key]
        rows = field[path[-1]]
        nested = isinstance(rows[-1], list)
        field[path[-1]] = [_over_one_denominator(row) for row in rows] if nested else _over_one_denominator(rows)
    yield "common denominator", common


def texts(payload: dict):
    r"""``(name, text)`` for each of ``variants(payload)`` as ``json.dumps`` writes it, then the
    payload with ``"\r\n"`` line endings, then that text with a syntax error after its last
    ``"\r\n"``."""
    for name, variant in variants(payload):
        yield name, json.dumps(variant)
    crlf = json.dumps(payload, indent=1).replace("\n", "\r\n")
    yield "crlf", crlf
    cut = crlf.rindex("\r\n") + 2
    yield "crlf syntax error", f"{crlf[:cut]}?{crlf[cut:]}"


def _result(main, argv, output: Path) -> str:
    """A digest of the exit status, stdout and stderr of ``main(argv)``, and of ``output``'s
    bytes when ``argv`` writes to it."""
    to_file = OUTPUT in argv
    if to_file:
        output.write_bytes(FILL)
        argv = [str(output) if token == OUTPUT else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = repr(main(argv))
        except Exception as exc:  # an escaping exception is a result to compare
            status = f"raised {type(exc).__name__}: {exc}"
    digest = hashlib.sha256("\0".join((status, out.getvalue(), err.getvalue())).encode())
    if to_file:
        digest.update(b"\0" + output.read_bytes())
    return digest.hexdigest()


def results(src: Path, items, work: Path) -> list[str]:
    """The digest of every run of ``items`` through ``src``'s CLI, in ``MODES`` order per item."""
    main = _fresh_main(src)
    output = work / "out.json"
    return [
        _result(main, [command, str(work / f"{k}.json"), *options, *flags], output)
        for k, (_, (command, *options), _) in enumerate(items)
        for flags in MODES.values()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", required=True, help="a src directory; give two")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    runs = [
        ([workload, seed, k], [command], payload)
        for workload in corpus.WORKLOADS
        for seed in args.seeds
        for k, (command, payload, _) in enumerate(corpus.build(workload, seed))
    ]
    runs += [
        (["gen-random", seed, k], ["gen-random", "--seed", str(seed)], payload)
        for seed in args.seeds
        for k, payload in enumerate(GEN_RANDOM)
    ]
    items = [([*label, name], command, text) for label, command, payload in runs for name, text in texts(payload)]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for k, (_, _, text) in enumerate(items):
            (work / f"{k}.json").write_bytes(text.encode())
        a, b = (results(src.resolve(), items, work) for src in args.src)
    labels = [[*label, mode] for label, _, _ in items for mode in MODES]
    differ = [label for label, x, y in zip(labels, a, b) if x != y]
    print(json.dumps({"runs": len(labels), "differ": len(differ), "first": differ[:10]}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
