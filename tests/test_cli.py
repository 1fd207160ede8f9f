import io
import json
import os
import stat
import subprocess
import sys
import threading

import pytest

from mpcmix import Mixture, SmpcTriple, decompose_full
from mpcmix import decomposition, distributions
from mpcmix.cli import main
from mpcmix.distributions import DiscreteDistribution, TransitionMatrix, apply_transition
from mpcmix.linalg import integer_row

from cases import DUEL_CDF, DUEL_PRIOR, GARBLING, PRIOR, TARGET, worked_triple


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


def test_internal_invariant_failure_is_exit_3(tmp_path, capsys, monkeypatch):
    # A component wider than the source must trip the decomposition's own check.
    wide = worked_triple()
    monkeypatch.setattr(decomposition, "apply_transition", lambda source, transition: wide)
    payload = {"source": PRIOR.to_json(), "transition": GARBLING.to_json()}
    code = run_cli(tmp_path, "decompose", payload)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"code": "internal", "message": "peeled component has more atoms than the source"}
    }


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


def test_missing_field_is_exit_2(tmp_path, capsys):
    assert run_cli(tmp_path, "decompose", {"source": PRIOR.to_json()}) == 2
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "parse"


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


def test_check_deviation(tmp_path, capsys):
    payload = {
        "source": DUEL_PRIOR.to_json(),
        "opponent_cdf": DUEL_CDF.to_json(),
        "equilibrium_value": "1/2",
        "candidates": ["0", "1/2", "3/4"],
    }
    assert run_cli(tmp_path, "check-deviation", payload) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["max_payoff"] == "1/2"
    assert result["profitable"] is False


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


def test_pretty_output(tmp_path, capsys):
    payload = {"source": PRIOR.to_json(), "transition": GARBLING.to_json()}
    assert run_cli(tmp_path, "decompose", payload, "--pretty") == 0
    text = capsys.readouterr().out
    assert "weight: 4/7" in text
    assert "atom" in text


def test_stdin_input(capsys, monkeypatch):
    payload = {"source": PRIOR.to_json(), "target": TARGET.to_json()}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert main(["is-mpc", "-"]) == 0
    assert json.loads(capsys.readouterr().out) == {"is_mpc": True}


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


def test_each_transition_row_is_converted_once(tmp_path, capsys, monkeypatch):
    converted = []

    def counting_integer_row(values):
        converted.append(tuple(values))
        return integer_row(values)

    monkeypatch.setattr(distributions, "integer_row", counting_integer_row)
    payload = {
        "source": PRIOR.to_json(),
        "transition": GARBLING.to_json(),
        "target": TARGET.to_json(),
    }
    for command in ("verify-smpc", "apply"):
        converted.clear()
        assert run_cli(tmp_path, command, payload) == 0
        capsys.readouterr()
        assert [converted.count(row) for row in GARBLING.matrix.entries] == [1, 1, 1]



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
