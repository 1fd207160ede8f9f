import contextlib
import dataclasses
import errno
import io
import json
import os
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from random import Random

import pytest

from mpcmix import Mixture, PiecewiseLinearFn, SmpcTriple, decompose_full, solve_linear_persuasion
from mpcmix import cli, decomposition, linalg, lp
from mpcmix.cli import main
from mpcmix.distributions import DiscreteDistribution, TransitionMatrix, apply_transition
from mpcmix.linalg import parse_rational

from cases import DUEL_CDF, DUEL_PRIOR, GARBLING, PRIOR, TARGET, worked_triple
from lp_fraction_reference import fractions_of
from persuasion_lp_reference import knots, knots_json
from random_instances import random_piecewise_linear, random_smpc


def run_cli(tmp_path, command, payload, *flags):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return main([command, str(path), *flags])


def test_decompose_worked_example(tmp_path, capsys):
    code = run_cli(tmp_path, "decompose", {"source": PRIOR.to_json(), "transition": GARBLING.to_json()})
    captured = capsys.readouterr()
    assert code == 0
    result = json.loads(captured.out)
    assert [c["weight"] for c in result["components"]] == ["4/7", "3/7"]
    assert Mixture.from_json(result) == decompose_full(worked_triple())


def test_decompose_accepts_an_explicit_target(tmp_path, capsys):
    payload = {
        "source": PRIOR.to_json(),
        "transition": GARBLING.to_json(),
        "target": TARGET.to_json(),
    }
    assert run_cli(tmp_path, "decompose", payload) == 0
    result = json.loads(capsys.readouterr().out)
    assert len(result["components"]) == 2


def test_is_mpc_reports_the_reason(tmp_path, capsys):
    shifted = {"atoms": ["0", "1/2", "9/8"], "weights": ["3/10", "3/10", "2/5"]}
    code = run_cli(tmp_path, "is-mpc", {"source": PRIOR.to_json(), "target": shifted})
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == {"is_mpc": False, "reason": "mean mismatch"}


def test_verify_smpc_row_sum_error(tmp_path, capsys):
    bad = {"rows": [["1/2", "1/3", "0", "0"], ["1/3", "0", "1/3", "1/3"], ["0", "1/4", "1/4", "1/2"]]}
    payload = {"source": PRIOR.to_json(), "transition": bad, "target": TARGET.to_json()}
    code = run_cli(tmp_path, "verify-smpc", payload)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "row-sum"


def test_verify_smpc_valid(tmp_path, capsys):
    payload = {
        "source": PRIOR.to_json(),
        "transition": GARBLING.to_json(),
        "target": TARGET.to_json(),
    }
    assert run_cli(tmp_path, "verify-smpc", payload) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True}


@pytest.mark.parametrize("command", ["apply", "verify-smpc", "decompose"])
@pytest.mark.parametrize(
    "rows, message",
    [
        # Every row sums to 1 but the first, which is also the shortest: the
        # shape is checked before the rows.
        ([["1/2"], ["1/2", "1/2"], ["1", "0", "0", "0"]], "matrix rows have unequal lengths"),
        ([["1"], ["1/2", "1/2"], ["1/3", "1/3", "1/3"]], "matrix rows have unequal lengths"),
        ([], "matrix needs at least one row and one column"),
        ([[], [], []], "matrix needs at least one row and one column"),
    ],
)
def test_ragged_or_empty_rows_are_parse_errors(tmp_path, capsys, command, rows, message):
    payload = {"source": PRIOR.to_json(), "transition": {"rows": rows}, "target": TARGET.to_json()}
    assert run_cli(tmp_path, command, payload) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "parse", "message": message}}


TWO_ATOMS = {"atoms": ["0", "1"], "weights": ["1/2", "1/2"]}
UTILITY = {"knots": [["0", "0"], ["1", "1"]]}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        # Read a character at a time, these rows were the 2x2 identity.
        ("apply", {"source": TWO_ATOMS, "transition": {"rows": ["10", "01"]}}, "row 0 of 'rows' must be a JSON list, not str"),
        ("apply", {"source": TWO_ATOMS, "transition": {"rows": "1001"}}, "'rows' must be a JSON list, not str"),
        ("apply", {"source": TWO_ATOMS, "transition": {"rows": {"a": 1}}}, "'rows' must be a JSON list, not dict"),
        # Read a character at a time, this was a point mass at 5.
        ("is-mpc", {"source": {"atoms": "5", "weights": ["1"]}, "target": TWO_ATOMS}, "'atoms' must be a JSON list, not str"),
        ("is-mpc", {"source": {"atoms": ["5"], "weights": "1"}, "target": TWO_ATOMS}, "'weights' must be a JSON list, not str"),
        ("solve-persuasion", {"source": TWO_ATOMS, "utility": {"knots": "01"}, "candidates": ["0", "1"]}, "'knots' must be a JSON list, not str"),
        # Read a character at a time, these were the knots (0, 1) and (1, 2).
        (
            "solve-persuasion",
            {"source": TWO_ATOMS, "utility": {"knots": ["01", "12"]}, "candidates": ["0", "1"]},
            "knot 0 of 'knots' must be a JSON list, not str",
        ),
        # A knot is a list, but of one (x, y) pair only.
        (
            "solve-persuasion",
            {"source": TWO_ATOMS, "utility": {"knots": [["0", "0", "5"], ["1", "1"]]}, "candidates": ["0", "1"]},
            "knot 0 of 'knots' must be an (x, y) pair",
        ),
        (
            "solve-persuasion",
            {"source": TWO_ATOMS, "utility": {"knots": [["0", "0"], ["1"]]}, "candidates": ["0", "1"]},
            "knot 1 of 'knots' must be an (x, y) pair",
        ),
        ("solve-persuasion", {"source": TWO_ATOMS, "utility": UTILITY, "candidates": "01"}, "'candidates' must be a JSON list, not str"),
        (
            "check-deviation",
            {"source": TWO_ATOMS, "opponent_cdf": UTILITY, "equilibrium_value": "1/2", "candidates": "01"},
            "'candidates' must be a JSON list, not str",
        ),
    ],
    ids=[
        "each row", "rows", "rows as an object", "atoms", "weights", "knots", "each knot",
        "knot of three values", "knot of one value", "candidates", "deviation candidates",
    ],
)
def test_a_json_list_field_must_be_a_list(tmp_path, capsys, command, payload, message):
    assert run_cli(tmp_path, command, payload) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "parse", "message": message}}


def test_internal_invariant_failure_is_exit_3(tmp_path, capsys, monkeypatch):
    # With every column taken as basic, the walk stops at s = 1 and peels the whole
    # 4-atom target on 3 source atoms, which must trip the decomposition's own check.
    monkeypatch.setattr(decomposition, "_echelon", lambda rows, columns: (None for _ in columns))
    payload = {"source": PRIOR.to_json(), "transition": GARBLING.to_json()}
    code = run_cli(tmp_path, "decompose", payload)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"code": "internal", "message": "peeled component has more atoms than the source"}
    }


def test_an_escaping_key_error_is_internal(tmp_path, capsys, monkeypatch):
    # Every payload key is read through a checked reader, so a KeyError can
    # only come from a bug.
    def broken(source, target):
        raise KeyError("atoms")

    monkeypatch.setattr(cli, "mpc_violation", broken)
    code = run_cli(tmp_path, "is-mpc", {"source": PRIOR.to_json(), "target": TARGET.to_json()})
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "internal", "message": "unexpected KeyError: 'atoms'"}}


def test_malformed_json_is_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["decompose", str(path)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "parse"


def test_huge_exponent_is_a_parse_error(tmp_path, capsys):
    source = {"atoms": ["0", "1e1000000"], "weights": ["1/2", "1/2"]}
    code = run_cli(tmp_path, "is-mpc", {"source": source, "target": TARGET.to_json()})
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["code"] == "parse"


def test_long_bad_atom_gives_a_short_parse_error(tmp_path, capsys):
    source = {"atoms": ["0", "x" * 1_000_000], "weights": ["1/2", "1/2"]}
    code = run_cli(tmp_path, "is-mpc", {"source": source, "target": TARGET.to_json()})
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"]["code"] == "parse"
    assert len(captured.err.encode()) < 1024


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["is-mpc", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {"code": "parse", "message": "input JSON is nested too deeply"}


def test_missing_field_is_exit_2(tmp_path, capsys):
    assert run_cli(tmp_path, "decompose", {"source": PRIOR.to_json()}) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "parse"


@pytest.mark.parametrize(
    "command, payload, message",
    [
        # A triple is read by SmpcTriple.from_json, which checks every key first.
        ("verify-smpc", {"source": PRIOR.to_json(), "transition": GARBLING.to_json()}, "triple JSON needs 'target'"),
        ("verify-smpc", {"transition": GARBLING.to_json(), "target": TARGET.to_json()}, "triple JSON needs 'source'"),
        ("verify-smpc", ["target"], "triple JSON must be an object"),
        ("decompose", {"source": PRIOR.to_json(), "target": TARGET.to_json()}, "triple JSON needs 'transition'"),
        # Without a target, decompose reads a source and a transition as apply does.
        ("decompose", {"source": PRIOR.to_json()}, "input JSON needs a 'transition' field"),
        ("decompose", ["target"], "input JSON needs a 'source' field"),
        ("decompose", "target", "input JSON needs a 'source' field"),
        ("apply", {"transition": GARBLING.to_json()}, "input JSON needs a 'source' field"),
        # Distributions, matrices and utilities are read by their own from_json.
        ("is-mpc", {"source": {"atoms": ["0"]}, "target": TWO_ATOMS}, "distribution JSON needs 'weights'"),
        ("is-mpc", {"source": TWO_ATOMS, "target": ["0", "1"]}, "distribution JSON must be an object"),
        ("apply", {"source": PRIOR.to_json(), "transition": {"grid": [["1"]]}}, "matrix JSON needs 'rows'"),
        ("apply", {"source": PRIOR.to_json(), "transition": [["1"]]}, "matrix JSON must be an object"),
        ("solve-persuasion", {"source": TWO_ATOMS, "utility": {}, "candidates": ["0", "1"]}, "piecewise-linear JSON needs 'knots'"),
        ("solve-persuasion", {"source": TWO_ATOMS, "utility": "u", "candidates": ["0", "1"]}, "piecewise-linear JSON must be an object"),
    ],
)
def test_missing_keys_name_the_reader(tmp_path, capsys, command, payload, message):
    assert run_cli(tmp_path, command, payload) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "parse", "message": message}}


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["decompose", str(tmp_path / "absent.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "io"


def test_apply_and_witness_round_trip(tmp_path, capsys):
    assert run_cli(tmp_path, "apply", {"source": PRIOR.to_json(), "transition": GARBLING.to_json()}) == 0
    triple = json.loads(capsys.readouterr().out)
    assert triple["target"] == TARGET.to_json()

    assert run_cli(tmp_path, "find-witness", {"source": triple["source"], "target": triple["target"]}) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness is not None
    SmpcTriple(PRIOR, TransitionMatrix.from_json(witness), TARGET)


def test_find_witness_none(tmp_path, capsys):
    shifted = {"atoms": ["0", "1/2", "9/8"], "weights": ["3/10", "3/10", "2/5"]}
    assert run_cli(tmp_path, "find-witness", {"source": PRIOR.to_json(), "target": shifted}) == 0
    assert json.loads(capsys.readouterr().out) == {"witness": None}


def test_solve_persuasion(tmp_path, capsys):
    payload = {
        "source": PRIOR.to_json(),
        "utility": {"knots": [["0", "1/5"], ["1", "9/10"]]},
        "candidates": ["0", "1/2", "1"],
    }
    assert run_cli(tmp_path, "solve-persuasion", payload) == 0
    result = json.loads(capsys.readouterr().out)
    # affine utility: value is u(mean) = 1/5 + (7/10)(11/20)
    assert result["value"] == "117/200"
    assert result["candidates_exact"] is True
    # The optimum is its own small-support answer and a one-component mixture.
    optimum = SmpcTriple.from_json(result["optimum"])
    assert result["reduced"] == result["optimum"]
    assert Mixture.from_json(result["certificate"]).components == ((1, optimum),)


def test_solve_persuasion_certificate_is_the_optimum_as_a_mixture(tmp_path, capsys, monkeypatch):
    # The certificate is written from the optimum's JSON, so it must stay
    # what Mixture.to_json writes for the one-component mixture, and the
    # command builds no Mixture to write it.
    rng = Random(7)
    built = []
    post_init = Mixture.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    for _ in range(20):
        n = rng.randint(2, 5)
        source = random_smpc(rng, n, rng.randint(n, 8)).source
        utility = random_piecewise_linear(rng, source.atoms[0], source.atoms[-1], interior=rng.randint(1, 3))
        candidates = sorted(set(source.atoms) | {x for x, _ in knots(utility)})
        payload = {"source": source.to_json(), "utility": knots_json(utility), "candidates": list(map(str, candidates))}
        with monkeypatch.context() as patch:
            patch.setattr(Mixture, "__post_init__", counting)
            assert run_cli(tmp_path, "solve-persuasion", payload) == 0
        assert built == []
        solution = solve_linear_persuasion(source, utility, candidates)
        expected = Mixture(((Fraction(1), solution.optimum),)).to_json()
        assert json.loads(capsys.readouterr().out)["certificate"] == expected


@pytest.mark.parametrize("constant", ["0", "3/2"])
def test_solve_persuasion_with_a_constant_utility(tmp_path, capsys, constant):
    # Every signal pays the same, so the start, full disclosure, is optimal.
    payload = {
        "source": PRIOR.to_json(),
        "utility": {"knots": [["0", constant], ["1/3", constant], ["1", constant]]},
        "candidates": ["0", "1/3", "1/2", "3/4", "1"],
    }
    assert run_cli(tmp_path, "solve-persuasion", payload) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["value"] == constant
    assert result["candidates_exact"] is True
    assert result["optimum"]["target"] == PRIOR.to_json()


PERSUASION_GRID = sorted(set(PRIOR.atoms) | set(TARGET.atoms))


def _unbounded(solve, problem, start):
    # The mass row bounds every weight, so an unbounded weight LP can only
    # come from a broken solver.
    return lp.LPOutcome("unbounded")


def _non_vertex(solve, problem, start):
    # TARGET is a feasible 4-atom contraction of the 3-atom PRIOR. By the
    # paper's theorem it is a mixture of smaller ones, so it is no vertex.
    weights = dict(zip(TARGET.atoms, TARGET.weights))
    solution = tuple(weights.get(c, Fraction(0)) for c in PERSUASION_GRID)
    return lp.LPOutcome("optimal", solution, sum(u * q for u, q in zip(fractions_of(problem.objective), solution)))


def _wrong_value(solve, problem, start):
    outcome = solve(problem, start=start)
    return dataclasses.replace(outcome, value=outcome.value + Fraction(1, 1000))


@pytest.mark.parametrize(
    "broken_solve, message",
    [
        (_unbounded, "persuasion LP came back unbounded"),
        (_non_vertex, "persuasion LP optimum is not a vertex: 4 atoms on a 3-atom prior"),
        (_wrong_value, "persuasion LP value differs from the optimum's expected utility"),
    ],
    ids=["unbounded", "non-vertex", "wrong value"],
)
def test_persuasion_lp_failure_is_exit_3(tmp_path, capsys, monkeypatch, broken_solve, message):
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem, *, start: broken_solve(solve, problem, start))
    payload = {
        "source": PRIOR.to_json(),
        "utility": {"knots": [["0", "1/5"], ["1", "9/10"]]},
        "candidates": [str(c) for c in PERSUASION_GRID],
    }
    code = run_cli(tmp_path, "solve-persuasion", payload)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "internal", "message": message}}


def test_check_deviation(tmp_path, capsys):
    payload = {
        "source": DUEL_PRIOR.to_json(),
        "opponent_cdf": knots_json(DUEL_CDF),
        "equilibrium_value": "1/2",
        "candidates": ["0", "1/2", "3/4"],
    }
    assert run_cli(tmp_path, "check-deviation", payload) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["max_payoff"] == "1/2"
    assert result["profitable"] is False
    witness = SmpcTriple.from_json(result["witness"])
    assert witness.source == DUEL_PRIOR
    assert DUEL_CDF.expectation(witness.target) == Fraction(1, 2)


def test_check_deviation_needs_a_cdf(tmp_path, capsys):
    payload = {
        "source": DUEL_PRIOR.to_json(),
        "opponent_cdf": {"knots": [["0", "0"], ["3/4", "2"]]},
        "equilibrium_value": "1/2",
        "candidates": ["0", "1/2", "3/4"],
    }
    assert run_cli(tmp_path, "check-deviation", payload) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error == {"code": "not-a-cdf", "message": "opponent distribution must be a continuous cdf (0 to 1, nondecreasing)"}


def test_check_deviation_needs_a_cdf_over_the_prior(tmp_path, capsys):
    payload = {
        "source": {"atoms": ["0", "1"], "weights": ["1/2", "1/2"]},
        "opponent_cdf": {"knots": [["1/4", "0"], ["3/4", "1"]]},
        "equilibrium_value": "1/2",
        "candidates": ["0", "1"],
    }
    assert run_cli(tmp_path, "check-deviation", payload) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error == {"code": "domain", "message": "opponent cdf domain must cover the prior's atom range"}


@pytest.mark.parametrize(
    "knots, code",
    [([["0", "0"], ["3/4", "2"]], "not-a-cdf"), ([["1/4", "0"], ["3/4", "1"]], "domain")],
    ids=["not a cdf", "short cdf"],
)
def test_check_deviation_checks_the_cdf_before_it_reads_candidates(tmp_path, capsys, knots, code):
    payload = {
        "source": {"atoms": ["0", "3/4"], "weights": ["1/2", "1/2"]},
        "opponent_cdf": {"knots": knots},
        "equilibrium_value": "1/2",
        "candidates": ["0", "abc", "3/4"],
    }
    assert run_cli(tmp_path, "check-deviation", payload) == 1
    assert json.loads(capsys.readouterr().err)["error"]["code"] == code
    payload["opponent_cdf"] = knots_json(DUEL_CDF)
    assert run_cli(tmp_path, "check-deviation", payload) == 2
    assert json.loads(capsys.readouterr().err)["error"] == {"code": "parse", "message": "not a rational: 'abc'"}


def test_check_deviation_reads_its_equilibrium_value_after_the_cdf_check(tmp_path, capsys):
    # The library reads the value once, after the cdf's shape and before its
    # domain. The CLI reads 'candidates' as a list before the library runs.
    payload = {
        "source": {"atoms": ["0", "3/4"], "weights": ["1/2", "1/2"]},
        "opponent_cdf": {"knots": [["0", "0"], ["3/4", "2"]]},
        "equilibrium_value": "x",
        "candidates": ["0", "abc", "3/4"],
    }
    assert run_cli(tmp_path, "check-deviation", payload) == 1
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "not-a-cdf"
    for knots in ([["1/4", "0"], ["3/4", "1"]], knots_json(DUEL_CDF)["knots"]):
        payload["opponent_cdf"] = {"knots": knots}
        assert run_cli(tmp_path, "check-deviation", payload) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {"code": "parse", "message": "not a rational: 'x'"}
    payload["candidates"] = "0"
    assert run_cli(tmp_path, "check-deviation", payload) == 2
    message = "'candidates' must be a JSON list, not str"
    assert json.loads(capsys.readouterr().err)["error"] == {"code": "parse", "message": message}


@pytest.mark.parametrize("key", ["n", "count"])
@pytest.mark.parametrize("value", [0, True, "3"], ids=repr)
def test_gen_random_sizes_must_be_positive_integers(tmp_path, capsys, key, value):
    payload = {"n": 3, "m": 2, key: value}
    assert run_cli(tmp_path, "gen-random", payload) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "parse", "message": f"{key!r} must be a positive integer"}}


def test_gen_random_is_seeded_and_valid(tmp_path, capsys):
    payload = {"n": 3, "m": 5, "count": 4}
    assert run_cli(tmp_path, "gen-random", payload, "--seed", "9") == 0
    first = capsys.readouterr().out
    assert run_cli(tmp_path, "gen-random", payload, "--seed", "9") == 0
    second = capsys.readouterr().out
    assert first == second
    for instance in json.loads(first)["instances"]:
        source = DiscreteDistribution.from_json(instance["source"])
        transition = TransitionMatrix.from_json(instance["transition"])
        triple = apply_transition(source, transition)
        SmpcTriple(triple.source, triple.transition, triple.target)
    assert run_cli(tmp_path, "gen-random", payload, "--seed", "10") == 0
    third = capsys.readouterr().out
    assert third != first


def test_gen_random_refuses_more_atoms_than_its_pool(tmp_path, capsys):
    # Atoms are a/b with |a| <= 12 and 1 <= b <= 5: 85 distinct values.
    assert run_cli(tmp_path, "gen-random", {"n": 85, "m": 2}, "--seed", "3") == 0
    source = json.loads(capsys.readouterr().out)["instances"][0]["source"]
    assert len(set(source["atoms"])) == 85
    assert run_cli(tmp_path, "gen-random", {"n": 86, "m": 2}, "--seed", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["code"] == "parse"
    assert error["message"].startswith("n = 86 exceeds the 85 distinct atoms")


def test_gen_random_refuses_too_many_entries_before_generating(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("generated past the size limit")

    monkeypatch.setattr(cli, "random_distribution", refuse)
    monkeypatch.setattr(cli, "random_transition", refuse)
    limit = cli.MAX_GENERATED_ENTRIES
    for payload in ({"n": 1, "m": limit + 1}, {"n": 2, "m": limit // 2, "count": 2 * limit}, {"n": 3, "m": 10**30}):
        assert run_cli(tmp_path, "gen-random", payload) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["code"] == "parse"
        assert error["message"].startswith("gen-random would make n*m*count = ")
        assert error["message"].endswith(f"matrix entries, more than {limit}")
    # At the limit itself, generation starts.
    with pytest.raises(AssertionError, match="generated past the size limit"):
        run_cli(tmp_path, "gen-random", {"n": 1, "m": limit})


def test_gen_random_stream_is_pinned(tmp_path, capsys):
    assert run_cli(tmp_path, "gen-random", {"n": 3, "m": 2}, "--seed", "9") == 0
    instance = json.loads(capsys.readouterr().out)["instances"][0]
    assert instance["source"] == {"atoms": ["-4", "-1/3", "2/5"], "weights": ["1/16", "3/8", "9/16"]}
    assert instance["transition"] == {"rows": [["3/7", "4/7"], ["0", "1"], ["1/2", "1/2"]]}


def test_determinism_and_output_file(tmp_path, capsys):
    payload = {"source": PRIOR.to_json(), "transition": GARBLING.to_json()}
    out_path = tmp_path / "mixture.json"
    assert run_cli(tmp_path, "decompose", payload, "-o", str(out_path)) == 0
    capsys.readouterr()
    assert run_cli(tmp_path, "decompose", payload) == 0
    streamed = capsys.readouterr().out
    assert out_path.read_text() == streamed


def test_decimals_mirror(tmp_path, capsys):
    payload = {"source": PRIOR.to_json(), "transition": GARBLING.to_json()}
    assert run_cli(tmp_path, "decompose", payload, "--decimals") == 0
    result = json.loads(capsys.readouterr().out)
    assert result["decimals"]["components"][0]["weight"] == 4 / 7
    # the exact part still round-trips
    del result["decimals"]
    assert Mixture.from_json(result) == decompose_full(worked_triple())


def test_decimals_keep_values_beyond_float_range(tmp_path, capsys):
    payload = {
        "source": {"atoms": ["1e400", "2e400"], "weights": ["1/2", "1/2"]},
        "transition": {"rows": [["1"], ["1"]]},
    }
    assert run_cli(tmp_path, "apply", payload, "--decimals") == 0
    result = json.loads(capsys.readouterr().out)
    mirror = result.pop("decimals")
    assert mirror["source"]["atoms"] == [str(10**400), str(2 * 10**400)]
    assert mirror["target"]["atoms"] == [str(15 * 10**399)]
    assert mirror["source"]["weights"] == [0.5, 0.5]
    assert run_cli(tmp_path, "apply", payload) == 0
    assert json.loads(capsys.readouterr().out) == result


def test_pretty_output(tmp_path, capsys):
    payload = {"source": PRIOR.to_json(), "transition": GARBLING.to_json()}
    assert run_cli(tmp_path, "decompose", payload, "--pretty") == 0
    text = capsys.readouterr().out
    assert "weight: 4/7" in text
    assert "atom" in text


# One valid payload per command.
EVERY_COMMAND = {
    "verify-smpc": {"source": PRIOR.to_json(), "transition": GARBLING.to_json(), "target": TARGET.to_json()},
    "apply": {"source": PRIOR.to_json(), "transition": GARBLING.to_json()},
    "is-mpc": {"source": PRIOR.to_json(), "target": TARGET.to_json()},
    "find-witness": {"source": PRIOR.to_json(), "target": TARGET.to_json()},
    "decompose": {"source": PRIOR.to_json(), "transition": GARBLING.to_json()},
    "solve-persuasion": {
        "source": PRIOR.to_json(),
        "utility": {"knots": [["0", "1/5"], ["1", "9/10"]]},
        "candidates": ["0", "1/2", "1"],
    },
    "check-deviation": {
        "source": DUEL_PRIOR.to_json(),
        "opponent_cdf": knots_json(DUEL_CDF),
        "equilibrium_value": "1/2",
        "candidates": ["0", "1/2", "3/4"],
    },
    "gen-random": {"n": 2, "m": 3},
}


def test_every_command_is_covered():
    assert set(EVERY_COMMAND) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", list(EVERY_COMMAND))
def test_pretty_decimals_runs_every_command(tmp_path, capsys, command):
    assert run_cli(tmp_path, command, EVERY_COMMAND[command], "--pretty", "--decimals") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "decimals:" in captured.out


def test_pretty_decimals_tables_the_mirror_floats(tmp_path, capsys):
    assert run_cli(tmp_path, "apply", EVERY_COMMAND["apply"], "--pretty", "--decimals") == 0
    lines = capsys.readouterr().out.splitlines()
    mirror = lines[lines.index("decimals:"):]
    assert mirror[:6] == ["decimals:", "  source:", "    atom  weight", "    0.0   0.3", "    0.5   0.3", "    1.0   0.4"]


@pytest.mark.parametrize(
    "command, payload, result",
    [
        ("is-mpc", EVERY_COMMAND["is-mpc"], {"is_mpc": True}),
        ("find-witness", {"source": PRIOR.to_json(), "target": {"atoms": ["0", "1/2", "9/8"], "weights": ["3/10", "3/10", "2/5"]}}, {"witness": None}),
    ],
    ids=["boolean", "null"],
)
def test_decimals_pass_booleans_and_null_through(tmp_path, capsys, command, payload, result):
    assert run_cli(tmp_path, command, payload, "--decimals") == 0
    assert json.loads(capsys.readouterr().out) == {**result, "decimals": result}


def test_stdin_input(capsys, monkeypatch):
    payload = {"source": PRIOR.to_json(), "target": TARGET.to_json()}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(["is-mpc", "-"]) == 0
    assert json.loads(capsys.readouterr().out) == {"is_mpc": True}


ARGV_TOKENS = [
    "apply", "gen-random", "decompose", "bogus", "in.json", "x y", "", "-", "-5", "--", "-h", "--help",
    "-o", "--output", "--output=x", "-ox", "--out", "--pretty", "--pre", "--decimals", "--dec",
    "--seed", "--seed=3", "7", " 8", "1_0", "-3", "x",
]


def parse_or_exit(argv):
    """``_build_parser().parse_args(argv)``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit:
            return None


def test_the_plain_argv_reader_agrees_with_argparse():
    rng = Random(20240)
    commands = list(cli._COMMANDS)
    accepted = 0
    for _ in range(3000):
        head = [rng.choice(commands)] if rng.random() < 0.9 else []
        argv = head + [rng.choice(ARGV_TOKENS) for _ in range(rng.randrange(7))]
        plain, parsed = cli._plain_args(argv), parse_or_exit(argv)
        if plain is not None:
            accepted += 1
            assert parsed is not None and vars(plain) == vars(parsed), argv
        if parsed is None:
            assert plain is None, argv
    # The pool reaches both sides: plain argv that the reader takes, and the rest.
    assert 300 < accepted < 2700


def test_a_plain_argv_never_builds_the_parser(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("argparse read a plain argv")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    out = tmp_path / "out.json"
    assert run_cli(tmp_path, "is-mpc", {"source": PRIOR.to_json(), "target": TARGET.to_json()}, "-o", str(out)) == 0
    assert json.loads(out.read_text()) == {"is_mpc": True}


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["apply", "-h"], 0, "out", "usage: mpcmix apply [-h] [-o OUTPUT] [--pretty] [--decimals] [input]\n"),
        (["gen-random", "--help"], 0, "out", "usage: mpcmix gen-random [-h] [-o OUTPUT] [--pretty] [--decimals] [--seed SEED]"),
        (["apply", "x", "--bogus"], 2, "err", "mpcmix: error: unrecognized arguments: --bogus\n"),
        (["apply", "--seed", "1"], 2, "err", "mpcmix: error: unrecognized arguments: --seed\n"),
        (["gen-random", "--seed", "x"], 2, "err", "mpcmix gen-random: error: argument --seed: invalid int value: 'x'\n"),
    ],
)
def test_help_and_usage_errors_stay_argparse_s(capsys, monkeypatch, argv, code, stream, text):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == code
    captured = capsys.readouterr()
    assert text in getattr(captured, stream)


def test_module_entry_point(tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"source": PRIOR.to_json(), "transition": GARBLING.to_json()}))
    proc = subprocess.run(
        [sys.executable, "-m", "mpcmix", "decompose", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    weights = [c["weight"] for c in json.loads(proc.stdout)["components"]]
    assert weights == ["4/7", "3/7"]


def test_repeated_calls_match_fresh_processes(tmp_path):
    garbling = tmp_path / "garbling.json"
    garbling.write_text(json.dumps({"source": PRIOR.to_json(), "transition": GARBLING.to_json()}))
    sizes = tmp_path / "sizes.json"
    sizes.write_text(json.dumps({"n": 3, "m": 4, "count": 2}))
    calls = [
        ["decompose", str(garbling), "--pretty"],
        ["decompose", str(garbling)],
        ["gen-random", str(sizes), "--seed", "5"],
    ]
    out = tmp_path / "out.txt"
    for argv in calls:
        assert main([*argv, "-o", str(out)]) == 0
        fresh = subprocess.run([sys.executable, "-m", "mpcmix", *argv], capture_output=True)
        assert fresh.returncode == 0
        assert out.read_bytes() == fresh.stdout


def _hash_seed_cases():
    """The solving commands on README's worked prior and on the duel's prior."""
    cdf = PiecewiseLinearFn.from_pairs([("0", "0"), ("1/2", "1/3"), ("1", "1")])
    for prior, opponent in ((PRIOR, cdf), (DUEL_PRIOR, DUEL_CDF)):
        atoms = prior.atoms
        grid = [str(c) for c in sorted({*atoms, *((a + b) / 2 for a, b in zip(atoms, atoms[1:]))})]
        source = prior.to_json()
        yield "decompose", {"source": source, "transition": GARBLING.to_json()}
        yield "find-witness", {"source": source, "target": apply_transition(prior, GARBLING).target.to_json()}
        yield "solve-persuasion", {"source": source, "utility": knots_json(opponent), "candidates": grid}
        yield "check-deviation", {
            "source": source,
            "opponent_cdf": knots_json(opponent),
            "equilibrium_value": "1/2",
            "candidates": grid,
        }


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # Sets and dict keys of Fraction values iterate in hash order, which
    # PYTHONHASHSEED changes from one process to the next.
    for k, (command, payload) in enumerate(_hash_seed_cases()):
        path = tmp_path / f"input-{k}.json"
        path.write_text(json.dumps(payload))
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            proc = subprocess.run([sys.executable, "-m", "mpcmix", command, str(path)], capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], command


def test_each_transition_row_is_converted_once(tmp_path, capsys, monkeypatch):
    # A row is converted to integers from text by parse_row, or from
    # Fraction values by integer_row; each call is recorded by its values.
    converted = []

    def counting(convert):
        def counted(values):
            values = tuple(values)
            converted.append(tuple(map(parse_rational, values)))
            return convert(values)

        return counted

    monkeypatch.setattr(linalg, "parse_row", counting(linalg.parse_row))
    monkeypatch.setattr(linalg, "integer_row", counting(linalg.integer_row))
    payload = {
        "source": PRIOR.to_json(),
        "transition": GARBLING.to_json(),
        "target": TARGET.to_json(),
    }
    for command in ("verify-smpc", "apply"):
        converted.clear()
        assert run_cli(tmp_path, command, payload) == 0
        capsys.readouterr()
        assert [converted.count(row) for row in GARBLING.entries] == [1, 1, 1]



WORKED_PAYLOAD = {"source": PRIOR.to_json(), "transition": GARBLING.to_json()}


@pytest.fixture
def mixture_bytes(tmp_path, capsys):
    """What ``decompose`` writes to stdout for the worked example."""
    assert run_cli(tmp_path, "decompose", WORKED_PAYLOAD) == 0
    return capsys.readouterr().out.encode()


def decompose_to(tmp_path, output):
    return run_cli(tmp_path, "decompose", WORKED_PAYLOAD, "-o", str(output))


def test_output_file_is_cut_to_the_new_length(tmp_path, mixture_bytes):
    out_path = tmp_path / "out.json"
    out_path.write_bytes(b"x" * (4 * len(mixture_bytes)))
    assert decompose_to(tmp_path, out_path) == 0
    assert out_path.read_bytes() == mixture_bytes


def test_output_file_keeps_its_inode_mode_and_links(tmp_path, mixture_bytes):
    out_path = tmp_path / "out.json"
    out_path.write_bytes(b"old contents")
    os.chmod(out_path, 0o640)
    os.link(out_path, tmp_path / "hard-link.json")
    before = os.stat(out_path)
    assert decompose_to(tmp_path, out_path) == 0
    after = os.stat(out_path)
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert (tmp_path / "hard-link.json").read_bytes() == mixture_bytes


def test_output_through_a_symlink_rewrites_its_target(tmp_path, mixture_bytes):
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * (4 * len(mixture_bytes)))
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert decompose_to(tmp_path, link) == 0
    assert link.is_symlink()
    assert target.read_bytes() == mixture_bytes


def test_output_to_dev_null(tmp_path):
    assert decompose_to(tmp_path, os.devnull) == 0


def test_output_to_a_fifo(tmp_path, mixture_bytes):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, "rb") as handle:
            received.append(handle.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert decompose_to(tmp_path, fifo) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [mixture_bytes]


@pytest.mark.parametrize("name", ["missing/out.json", "a-directory"])
def test_unwritable_output_is_an_io_error(tmp_path, capsys, name):
    (tmp_path / "a-directory").mkdir()
    output = tmp_path / name
    with pytest.raises(OSError) as raised:
        open(output, "w")
    assert decompose_to(tmp_path, output) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "io", "message": str(raised.value)}}


def test_output_over_its_own_input(tmp_path, mixture_bytes):
    path = tmp_path / "input.json"
    assert decompose_to(tmp_path, path) == 0
    assert path.read_bytes() == mixture_bytes


def test_rewrites_of_one_path_stay_byte_identical(tmp_path, mixture_bytes):
    out_path = tmp_path / "out.json"
    for _ in range(20):
        assert decompose_to(tmp_path, out_path) == 0
        assert out_path.read_bytes() == mixture_bytes


def text_mode_failure(path):
    """What reading ``path`` with a text-mode file object and ``json.loads`` raises."""
    with pytest.raises((OSError, ValueError)) as raised:
        with open(path, encoding="utf-8") as handle:
            json.loads(handle.read())
    return raised.value


def spoiled_input(tmp_path, case):
    """The path of an input that fails to be read, as ``case`` names it."""
    path = tmp_path / case
    if case == "edge":
        path.mkdir(exist_ok=True)
    elif case != "absent.json":
        path.write_bytes(SPOILED_INPUTS[case])
    return path


SPOILED_INPUTS = {
    "crlf.json": b'{\r\n "source": 1,\r\n "target": 2,\r\n x}',
    "lone-cr.json": b'{\r "source": 1,\r "target": 2,\r x}',
    "mixed-newlines.json": b'{\r\n "source": 1,\r "target": 2,\n\r\n x}',
    "bad-utf8.json": b'{"pad": "' + b"a" * 9000 + b'\xff"}',
    "bom.json": b"\xef\xbb\xbf" + json.dumps(WORKED_PAYLOAD).encode(),
}


@pytest.mark.parametrize("case", ["edge", "absent.json", *SPOILED_INPUTS])
def test_unreadable_input_fails_as_text_mode_does(tmp_path, capsys, case):
    path = spoiled_input(tmp_path, case)
    expected = text_mode_failure(path)
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    code = "io" if isinstance(expected, OSError) else "parse"
    assert json.loads(captured.err) == {"error": {"code": code, "message": str(expected)}}
    if code == "io":
        # A directory opens and fails to read, and its message still names it.
        assert str(expected).endswith(f": {str(path)!r}")


@pytest.mark.parametrize(
    "content",
    [
        b"",
        json.dumps(WORKED_PAYLOAD, indent=1).replace("\n", "\r\n").encode(),
        b'{"a":\r\r\n\r"\xc3\xa9"}\r',
        # Longer than one read, with a two-byte character across the first
        # read's end and a "\r\n" across the second's.
        b'["' + b"a" * (cli._READ_SIZE - 3) + b'\xc3\xa9' + b"b" * (cli._READ_SIZE - 2) + b'"\r\n]',
    ],
)
def test_input_text_is_what_text_mode_reads(tmp_path, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    with open(path, encoding="utf-8") as handle:
        assert cli._read_input(str(path)) == handle.read()


def test_crlf_input_gives_the_same_output(tmp_path, capsys, mixture_bytes):
    path = tmp_path / "crlf.json"
    path.write_bytes(json.dumps(WORKED_PAYLOAD, indent=1).replace("\n", "\r\n").encode())
    assert main(["decompose", str(path)]) == 0
    assert capsys.readouterr().out.encode() == mixture_bytes


def test_short_writes_still_write_the_whole_file(tmp_path, mixture_bytes, monkeypatch):
    out_path = tmp_path / "out.json"
    out_path.write_bytes(b"x" * (4 * len(mixture_bytes)))
    write, calls = os.write, []

    def one_byte(fd, data):
        calls.append(len(data))
        return write(fd, data[:1])

    monkeypatch.setattr(os, "write", one_byte)
    assert decompose_to(tmp_path, out_path) == 0
    monkeypatch.undo()
    assert out_path.read_bytes() == mixture_bytes
    assert calls == list(range(len(mixture_bytes), 0, -1))


def test_output_files_take_the_platform_newline(tmp_path, capsys, mixture_bytes, monkeypatch):
    monkeypatch.setattr(os, "linesep", "\r\n")
    out_path = tmp_path / "out.json"
    assert decompose_to(tmp_path, out_path) == 0
    assert out_path.read_bytes() == mixture_bytes.replace(b"\n", b"\r\n")
    assert decompose_to(tmp_path, "-") == 0
    assert capsys.readouterr().out.encode() == mixture_bytes


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_is_reported_as_text_mode_reports_it(tmp_path, capsys, mixture_bytes):
    with pytest.raises(OSError) as raised:
        with open("/dev/full", "w", encoding="utf-8") as handle:
            handle.write(mixture_bytes.decode())
    assert decompose_to(tmp_path, "/dev/full") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": {"code": "io", "message": str(raised.value)}}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_file_descriptor_is_leaked(tmp_path, capsys, monkeypatch):
    input_path = tmp_path / "input.json"
    input_path.write_text(json.dumps(WORKED_PAYLOAD))
    (tmp_path / "out-dir").mkdir()
    write = os.write

    def failing_write(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write_fails(argv):
        monkeypatch.setattr(os, "write", failing_write)
        try:
            return main(argv)
        finally:
            monkeypatch.setattr(os, "write", write)

    out = str(tmp_path / "out.json")
    calls = [
        (main, ["decompose", str(input_path), "-o", out], 0),
        (main, ["decompose", str(input_path), "-o", os.devnull], 0),
        (main, ["decompose", str(input_path), "-o", str(tmp_path / "out-dir")], 2),
        (main, ["decompose", str(input_path), "-o", str(tmp_path / "missing" / "out.json")], 2),
        (write_fails, ["decompose", str(input_path), "-o", out], 2),
    ]
    calls += [
        (main, ["decompose", str(spoiled_input(tmp_path, case)), "-o", out], 2)
        for case in ["edge", "absent.json", *SPOILED_INPUTS]
    ]
    before = len(os.listdir("/proc/self/fd"))
    for k in range(200):
        run, argv, code = calls[k % len(calls)]
        assert run(argv) == code
    capsys.readouterr()
    assert len(os.listdir("/proc/self/fd")) == before
