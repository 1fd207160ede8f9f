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
from fractions import Fraction
from random import Random

from .decomposition import decompose_full
from .distributions import (
    DiscreteDistribution,
    SmpcTriple,
    TransitionMatrix,
    apply_transition,
    mpc_violation,
)
from .errors import InternalError, MpcError
from .linalg import parse_rational
from .lp import find_witness
from .persuasion import (
    PiecewiseLinearFn,
    check_no_profitable_deviation,
    solve_linear_persuasion,
)
from .randgen import random_distribution, random_transition


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


def _cmd_verify_smpc(payload, args):
    SmpcTriple(
        DiscreteDistribution.from_json(_field(payload, "source")),
        TransitionMatrix.from_json(_field(payload, "transition")),
        DiscreteDistribution.from_json(_field(payload, "target")),
    )
    return {"valid": True}


def _cmd_apply(payload, args):
    triple = apply_transition(
        DiscreteDistribution.from_json(_field(payload, "source")),
        TransitionMatrix.from_json(_field(payload, "transition")),
    )
    return triple.to_json()


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


def _triple_from_payload(payload):
    source = DiscreteDistribution.from_json(_field(payload, "source"))
    transition = TransitionMatrix.from_json(_field(payload, "transition"))
    if "target" in payload:
        return SmpcTriple(
            source, transition, DiscreteDistribution.from_json(payload["target"])
        )
    return apply_transition(source, transition)


def _cmd_decompose(payload, args):
    return decompose_full(_triple_from_payload(payload)).to_json()


def _cmd_solve_persuasion(payload, args):
    solution = solve_linear_persuasion(
        DiscreteDistribution.from_json(_field(payload, "source")),
        PiecewiseLinearFn.from_json(_field(payload, "utility")),
        [parse_rational(x) for x in _field(payload, "candidates")],
    )
    return {
        "value": str(solution.value),
        "candidates_exact": solution.candidates_exact,
        "optimum": solution.optimum.to_json(),
        "reduced": solution.reduced.to_json(),
        "certificate": solution.certificate.to_json(),
    }


def _cmd_check_deviation(payload, args):
    check = check_no_profitable_deviation(
        DiscreteDistribution.from_json(_field(payload, "source")),
        PiecewiseLinearFn.from_json(_field(payload, "opponent_cdf")),
        parse_rational(_field(payload, "equilibrium_value")),
        [parse_rational(x) for x in _field(payload, "candidates")],
    )
    return {
        "max_payoff": str(check.max_payoff),
        "equilibrium_value": str(check.equilibrium_value),
        "profitable": check.profitable,
        "witness": check.witness.to_json(),
    }


def _cmd_gen_random(payload, args):
    n = _positive_int(payload, "n")
    m = _positive_int(payload, "m")
    count = _positive_int(payload, "count", default=1)
    rng = Random(args.seed)
    instances = []
    for _ in range(count):
        source = random_distribution(rng, n)
        transition = random_transition(rng, n, m)
        apply_transition(source, transition)  # generated pairs must certify
        instances.append(
            {"source": source.to_json(), "transition": transition.to_json()}
        )
    return {"instances": instances}


_HANDLERS = {
    "verify-smpc": _cmd_verify_smpc,
    "apply": _cmd_apply,
    "is-mpc": _cmd_is_mpc,
    "find-witness": _cmd_find_witness,
    "decompose": _cmd_decompose,
    "solve-persuasion": _cmd_solve_persuasion,
    "check-deviation": _cmd_check_deviation,
    "gen-random": _cmd_gen_random,
}

_HELP = {
    "verify-smpc": "check a (source, transition, target) triple exactly",
    "apply": "garble a source through a transition matrix",
    "is-mpc": "test the contraction order between two distributions",
    "find-witness": "search for a garbling matrix certifying a contraction",
    "decompose": "split a contraction into a mixture of small-support ones",
    "solve-persuasion": "maximize a piecewise-linear payoff over contractions",
    "check-deviation": "bound the best deviation against an opponent cdf",
    "gen-random": "emit seeded random (source, transition) instances",
}


def _decimalize(obj):
    if isinstance(obj, dict):
        return {k: _decimalize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decimalize(v) for v in obj]
    if isinstance(obj, str):
        try:
            return float(Fraction(obj))
        except (ValueError, ZeroDivisionError):
            return obj
    return obj


def _table(rows):
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
            return [pad + line for line in _table([[str(x) for x in row] for row in obj["rows"]])]
        if set(obj) == {"knots"}:
            rows = [["x", "y"]] + [list(pair) for pair in obj["knots"]]
            return [pad + line for line in _table(rows)]
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


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# No O_TRUNC: an existing file is overwritten from offset 0 and then cut to
# the new length. On ext4, truncating to zero a file whose last contents were
# still being written back stalled each rewrite of the same path for tens of
# milliseconds, as ext4's replace-via-truncate handling (auto_da_alloc) would.
_OUTPUT_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write_output(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(os.open(path, _OUTPUT_FLAGS, 0o666), "w", encoding="utf-8") as handle:
        handle.write(text)
        # FIFOs and devices have no length to cut (ftruncate on /dev/null
        # fails with EINVAL).
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()


def _emit_error(code, message):
    sys.stderr.write(
        json.dumps({"error": {"code": code, "message": message}}, indent=2) + "\n"
    )


@functools.cache
def _build_parser():
    """The argument parser, built on the first ``main`` call and reused after."""
    parser = argparse.ArgumentParser(
        prog="mpcmix",
        description=(
            "Exact tools for mean-preserving contractions: certification, "
            "witness finding, mixture decomposition, and persuasion solving."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name, help=_HELP[name])
        cmd.add_argument("input", nargs="?", default="-", help="input JSON path, or - for stdin")
        cmd.add_argument("-o", "--output", default="-", help="output path, or - for stdout")
        cmd.add_argument("--pretty", action="store_true", help="human-readable tables instead of JSON")
        cmd.add_argument(
            "--decimals",
            action="store_true",
            help="add a 'decimals' mirror with float approximations",
        )
        if name == "gen-random":
            cmd.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = json.loads(_read_input(args.input))
        result = _HANDLERS[args.command](payload, args)
    except InternalError as exc:
        _emit_error(exc.code, str(exc))
        return 3
    except MpcError as exc:
        _emit_error(exc.code, str(exc))
        return 1
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    except KeyError as exc:
        _emit_error("parse", f"missing or malformed field: {exc}")
        return 2
    except (ValueError, TypeError) as exc:
        _emit_error("parse", str(exc))
        return 2
    if args.decimals:
        result = dict(result)
        result["decimals"] = _decimalize({k: v for k, v in result.items()})
    if args.pretty:
        text = "\n".join(_pretty(result)) + "\n"
    else:
        text = json.dumps(result, indent=2) + "\n"
    try:
        _write_output(args.output, text)
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
