"""An audit of the unchecked constructors over the benchmark's seeded corpora.

``Matrix._trusted`` and ``SmpcTriple._trusted`` skip every check, on the
argument that their callers' construction already guarantees it. The
``audited`` fixture sends each of their calls through the full checks
instead, and asserts that every row built through ``_trusted`` or
``_checked`` is in lowest terms. The audit then runs every command of the
CLI on the ``bench/corpus.py`` corpora, whose ``certify-wide`` triples
reach 60 x 100, on ``gen-random`` payloads, and on transitions with their
columns reversed, which ``apply_transition`` must sort and rebuild. Tests
that build a broken matrix on purpose do not use the fixture.
"""

import json
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

from mpcmix import cli
from mpcmix.distributions import SmpcTriple
from mpcmix.linalg import Matrix

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import corpus  # noqa: E402

SEED = 2
GEN_RANDOM = [{"n": 3, "m": 4, "count": 2}, {"n": 12, "m": 30}]


@pytest.fixture
def audited(monkeypatch):
    """Every unchecked construction checked in full; counts of each kind audited."""
    counts = Counter()
    checked = Matrix._checked.__func__

    def lowest_terms_checked(cls, rows):
        for scale, ints in rows:
            assert scale > 0 and gcd(scale, *ints) == 1, (cls.__name__, scale, ints)
        counts[f"{cls.__name__}._checked"] += 1
        return checked(cls, rows)

    def trusted_matrix(cls, rows):
        counts[f"{cls.__name__}._trusted"] += 1
        return lowest_terms_checked(cls, rows)

    def trusted_triple(cls, source, transition, target):
        counts["SmpcTriple._trusted"] += 1
        return cls(source, transition, target)

    monkeypatch.setattr(Matrix, "_checked", classmethod(lowest_terms_checked))
    monkeypatch.setattr(Matrix, "_trusted", classmethod(trusted_matrix))
    monkeypatch.setattr(SmpcTriple, "_trusted", classmethod(trusted_triple))
    return counts


def corpus_runs():
    """``(argv head, payload)`` of every command: the four corpora, gen-random, reversed columns."""
    for workload in corpus.WORKLOADS:
        for command, payload, _ in corpus.build(workload, SEED):
            yield [command], payload
            if command in ("apply", "decompose"):
                reversed_rows = [row[::-1] for row in payload["transition"]["rows"]]
                yield [command], {**payload, "transition": {"rows": reversed_rows}}
    for payload in GEN_RANDOM:
        yield ["gen-random", "--seed", str(SEED)], payload


def test_the_unchecked_constructors_pass_every_check_on_the_corpora(audited, tmp_path):
    path, out = tmp_path / "input.json", tmp_path / "output.json"
    commands = Counter()
    for (command, *options), payload in corpus_runs():
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main([command, str(path), "-o", str(out), *options]) == 0, command
        commands[command] += 1
    assert set(commands) == set(cli._COMMANDS)
    # Each unchecked constructor in the package ran under the audit.
    for kind in ("Matrix", "TransitionMatrix", "SmpcTriple"):
        assert audited[f"{kind}._trusted"] > 0, kind
    for kind in ("DiscreteDistribution", "TransitionMatrix", "PiecewiseLinearFn"):
        assert audited[f"{kind}._checked"] > 0, kind
