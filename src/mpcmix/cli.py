"""Command-line interface: exact JSON in, exact JSON out.

Every rational travels as a string like "4/7" so nothing is rounded on the
way through. Success writes the result JSON (exit 0); domain failures write a
structured error to stderr (exit 1); unreadable input is exit 2; a failed
internal invariant writes a structured ``internal`` error (exit 3). Identical
inputs, including the seed for gen-random, produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from json.encoder import encode_basestring_ascii
from random import Random

from .decomposition import decompose_full
from .distributions import (
    DiscreteDistribution,
    SmpcTriple,
    TransitionMatrix,
    apply_transition,
    find_witness,
    mpc_violation,
)
from .errors import InternalError, MpcError
from .linalg import json_list, parse_rational
from .persuasion import (
    PiecewiseLinearFn,
    check_no_profitable_deviation,
    solve_linear_persuasion,
)
from .randgen import random_distribution, random_transition

MAX_GENERATED_ENTRIES = 1_000_000
"""Most matrix entries, n*m*count, that one ``gen-random`` call makes. It is
checked before anything is generated."""


def _field(payload, key):
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"input JSON needs a {key!r} field")
    return payload[key]


def _positive_int(payload, key, default=None):
    if default is not None and key not in payload:
        return default
    value = _field(payload, key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{key!r} must be a positive integer")
    return value


def _candidates(payload):
    return json_list(_field(payload, "candidates"), "'candidates'")


def _garbled(payload):
    """The certified triple of the payload's source garbled through its transition."""
    return apply_transition(
        DiscreteDistribution.from_json(_field(payload, "source")),
        TransitionMatrix.from_json(_field(payload, "transition")),
    )


def _cmd_verify_smpc(payload, args):
    SmpcTriple.from_json(payload)
    return {"valid": True}


def _cmd_apply(payload, args):
    return _garbled(payload).to_json()


def _cmd_is_mpc(payload, args):
    reason = mpc_violation(
        DiscreteDistribution.from_json(_field(payload, "source")),
        DiscreteDistribution.from_json(_field(payload, "target")),
    )
    if reason is None:
        return {"is_mpc": True}
    return {"is_mpc": False, "reason": reason}


def _cmd_find_witness(payload, args):
    witness = find_witness(
        DiscreteDistribution.from_json(_field(payload, "source")),
        DiscreteDistribution.from_json(_field(payload, "target")),
    )
    return {"witness": None if witness is None else witness.to_json()}


def _cmd_decompose(payload, args):
    if isinstance(payload, dict) and "target" in payload:
        return decompose_full(SmpcTriple.from_json(payload)).to_json()
    return decompose_full(_garbled(payload)).to_json()


def _cmd_solve_persuasion(payload, args):
    solution = solve_linear_persuasion(
        DiscreteDistribution.from_json(_field(payload, "source")),
        PiecewiseLinearFn.from_json(_field(payload, "utility")),
        _candidates(payload),
    )
    # The optimum is an LP vertex with at most n atoms, so it is its own
    # small-support answer ("reduced") and a one-component mixture, written
    # as Mixture.to_json writes one.
    optimum = solution.optimum.to_json()
    component = {"weight": "1", "target": optimum["target"], "transition": optimum["transition"]}
    return {
        "value": str(solution.value),
        "candidates_exact": solution.candidates_exact,
        "optimum": optimum,
        "reduced": optimum,
        "certificate": {"source": optimum["source"], "components": [component]},
    }


def _cmd_check_deviation(payload, args):
    check = check_no_profitable_deviation(
        DiscreteDistribution.from_json(_field(payload, "source")),
        PiecewiseLinearFn.from_json(_field(payload, "opponent_cdf")),
        _field(payload, "equilibrium_value"),
        _candidates(payload),
    )
    return {
        "max_payoff": str(check.max_payoff),
        "equilibrium_value": str(check.equilibrium_value),
        "profitable": check.profitable,
        "witness": check.solution.optimum.to_json(),
    }


def _cmd_gen_random(payload, args):
    n = _positive_int(payload, "n")
    m = _positive_int(payload, "m")
    count = _positive_int(payload, "count", default=1)
    if n * m * count > MAX_GENERATED_ENTRIES:
        raise ValueError(
            f"gen-random would make n*m*count = {n * m * count} matrix entries, "
            f"more than {MAX_GENERATED_ENTRIES}"
        )
    rng = Random(args.seed)
    instances = []
    for _ in range(count):
        source = random_distribution(rng, n)
        transition = random_transition(rng, n, m)
        instances.append(
            {"source": source.to_json(), "transition": transition.to_json()}
        )
    return {"instances": instances}


# Each command's handler and its --help line.
_COMMANDS = {
    "verify-smpc": (_cmd_verify_smpc, "check a (source, transition, target) triple exactly"),
    "apply": (_cmd_apply, "garble a source through a transition matrix"),
    "is-mpc": (_cmd_is_mpc, "test the contraction order between two distributions"),
    "find-witness": (_cmd_find_witness, "search for a garbling matrix certifying a contraction"),
    "decompose": (_cmd_decompose, "split a contraction into a mixture of small-support ones"),
    "solve-persuasion": (_cmd_solve_persuasion, "maximize a piecewise-linear payoff over contractions"),
    "check-deviation": (_cmd_check_deviation, "bound the best deviation against an opponent cdf"),
    "gen-random": (_cmd_gen_random, "emit seeded random (source, transition) instances"),
}


def _decimalize(obj):
    if isinstance(obj, dict):
        return {k: _decimalize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decimalize(v) for v in obj]
    if isinstance(obj, str):
        # Text that parse_rational refuses, or a value beyond float range, stays exact.
        try:
            return float(parse_rational(obj))
        except (ValueError, OverflowError):
            return obj
    return obj


def _table(rows):
    # Cells are text, or the floats of a --decimals mirror.
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    ]


def _pretty(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if set(obj) == {"atoms", "weights"}:
            rows = [["atom", "weight"]] + [list(pair) for pair in zip(obj["atoms"], obj["weights"])]
            return [pad + line for line in _table(rows)]
        if set(obj) == {"rows"}:
            return [pad + line for line in _table(obj["rows"])]
        lines = []
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return lines
    if isinstance(obj, list):
        lines = []
        for k, value in enumerate(obj):
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}[{k}]")
                lines.extend(_pretty(value, indent + 1))
            else:
                lines.append(f"{pad}- {value}")
        return lines
    return [pad + str(obj)]


def _json_text(obj, pad="\n"):
    """The text of ``json.dumps(obj, indent=2)`` for what the commands return.

    That is dicts with string keys, lists, strings, numbers, booleans and
    ``None``. ``json.dumps`` with an indent runs the pure-Python encoder,
    whose nested closures are left in reference cycles after every call, for
    the garbage collector to find. Strings are written by ``json``'s own ASCII
    escaper, and numbers, booleans and ``None`` by ``json.dumps``.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = (f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = pad + "  "
        # A list of strings, such as a row of values, is written in one join.
        # The escaper refuses any other item with a TypeError, and then the
        # list is written item by item.
        try:
            items = ("," + inner).join(map(encode_basestring_ascii, obj))
        except TypeError:
            items = ("," + inner).join(_json_text(v, inner) for v in obj)
        return "[" + inner + items + pad + "]"
    return json.dumps(obj)


# Input files are read as bytes and decoded here, which costs a third of what
# a text-mode file object does on a small payload. O_BINARY keeps Windows from
# translating newlines underneath.
_INPUT_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
# Bytes asked of each os.read: the largest input of the benchmark corpora,
# about 100 KB, is read in one call.
_READ_SIZE = 1 << 18


def _read_input(path):
    """The text of the input file, as ``open(path, encoding="utf-8").read()`` reads it."""
    if path == "-":
        return sys.stdin.read()
    fd = os.open(path, _INPUT_FLAGS)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    except OSError as exc:
        # A directory opens and then fails to read, with no path in the
        # error, where text mode's open names it.
        if exc.filename is None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8")
    # Text mode's universal newlines: a JSON error's offsets count "\r\n"
    # and a lone "\r" as one "\n".
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _decode(text):
    # json.loads recurses once per nesting level, so deep enough input
    # exhausts the stack instead of failing to parse.
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None


# No O_TRUNC: an existing file is overwritten from offset 0 and then cut to
# the new length. On ext4, truncating to zero a file whose last contents were
# still being written back stalled each rewrite of the same path for tens of
# milliseconds, as ext4's replace-via-truncate handling (auto_da_alloc) would.
# The file is written with os.write, with no file object, and O_BINARY keeps
# Windows from translating newlines underneath.
_OUTPUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write_output(path, text):
    r"""Write ``text`` to stdout, for ``-``, or as UTF-8 over the file at ``path``.

    The file's bytes are those that text mode writes: each ``"\n"`` is the
    platform's newline.
    """
    if path == "-":
        sys.stdout.write(text)
        return
    fd = os.open(path, _OUTPUT_FLAGS, 0o666)
    try:
        if os.linesep != "\n":
            text = text.replace("\n", os.linesep)
        data = text.encode("utf-8")
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        # FIFOs and devices have no length to cut (ftruncate on /dev/null
        # fails with EINVAL), and a file rewritten at its old length has
        # nothing to cut.
        status = os.fstat(fd)
        if stat.S_ISREG(status.st_mode) and status.st_size != len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _emit_error(code, message):
    sys.stderr.write(
        _json_text({"error": {"code": code, "message": message}}) + "\n"
    )


# Each command's arguments, as add_argument takes them: the input, then the
# options, of which --seed is gen-random's alone. The parser and the plain-argv
# reader both take every name, dest and default from here.
_INPUT = ("input", {"nargs": "?", "default": "-", "help": "input JSON path, or - for stdin"})
_OPTIONS = (
    (("-o", "--output"), {"dest": "output", "default": "-", "help": "output path, or - for stdout"}),
    (
        ("--pretty",),
        {"dest": "pretty", "action": "store_true", "default": False, "help": "human-readable tables instead of JSON"},
    ),
    (
        ("--decimals",),
        {
            "dest": "decimals",
            "action": "store_true",
            "default": False,
            "help": "add a 'decimals' mirror with float approximations",
        },
    ),
)
_SEED = (("--seed",), {"dest": "seed", "type": int, "default": 0, "help": "PRNG seed (default 0)"})


def _options(command):
    return _OPTIONS + (_SEED,) if command == "gen-random" else _OPTIONS


@functools.cache
def _build_parser():
    """The argument parser, built on the first call that needs it and reused after."""
    parser = argparse.ArgumentParser(
        prog="mpcmix",
        description=(
            "Exact tools for mean-preserving contractions: certification, "
            "witness finding, mixture decomposition, and persuasion solving."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(_INPUT[0], **_INPUT[1])
        for flags, spec in _options(name):
            cmd.add_argument(*flags, **spec)
    return parser


def _plain_table(command):
    """The namespace of ``command`` with every default, and each of its option tokens' spec."""
    options = _options(command)
    defaults = {"command": command, _INPUT[0]: _INPUT[1]["default"]}
    defaults.update((spec["dest"], spec["default"]) for _, spec in options)
    return defaults, {flag: spec for flags, spec in options for flag in flags}


_PLAIN_ARGV = {name: _plain_table(name) for name in _COMMANDS}


def _is_value(token):
    """Whether ``token`` is ``-`` or does not start with ``-``, so that it can only be a value."""
    return token == "-" or not token.startswith("-")


def _plain_args(argv):
    """What ``_build_parser().parse_args(argv)`` returns for a plain ``argv``, else None.

    A plain argv is a command, then optionally its input path, then whole
    option tokens such as ``-o``, each option's value in the next token. The
    input and every value must be ``-`` or must not start with ``-``. Every
    other argv returns None: help, abbreviated or joined options, ``--``, a
    second input and any token that is not known here.
    """
    if not isinstance(argv, (list, tuple)) or not argv or not all(isinstance(token, str) for token in argv):
        return None
    plain = _PLAIN_ARGV.get(argv[0])
    if plain is None:
        return None
    values, specs = dict(plain[0]), plain[1]
    rest = argv[1:]
    if rest and _is_value(rest[0]):
        values[_INPUT[0]], rest = rest[0], rest[1:]
    tokens = iter(rest)
    for token in tokens:
        spec = specs.get(token)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            values[spec["dest"]] = True
            continue
        value = next(tokens, None)
        if value is None or not _is_value(value):
            return None
        try:
            values[spec["dest"]] = spec.get("type", str)(value)
        except ValueError:
            return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    # Every in-process caller passes a plain argv, and reading it by hand
    # costs a few microseconds where argparse costs tens, on calls that can
    # take under 0.2 ms in all. Every other spelling goes to argparse, with
    # argparse's own help, errors and exit codes.
    args = _plain_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        payload = _decode(_read_input(args.input))
        result = _COMMANDS[args.command][0](payload, args)
    except InternalError as exc:
        _emit_error(exc.code, str(exc))
        return 3
    except KeyError as exc:
        # Every payload key is read through _field or json_object, so a
        # KeyError that gets here is a bug, not a verdict on the input.
        _emit_error(InternalError.code, f"unexpected KeyError: {exc}")
        return 3
    except MpcError as exc:
        _emit_error(exc.code, str(exc))
        return 1
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    except (ValueError, TypeError) as exc:
        _emit_error("parse", str(exc))
        return 2
    if args.decimals:
        result = dict(result)
        result["decimals"] = _decimalize(result)
    if args.pretty:
        text = "\n".join(_pretty(result)) + "\n"
    else:
        text = _json_text(result) + "\n"
    try:
        _write_output(args.output, text)
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
