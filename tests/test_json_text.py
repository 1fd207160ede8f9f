"""The CLI's JSON writer: the bytes of ``json.dumps(x, indent=2)``, and no cyclic garbage."""

import gc
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mpcmix.cli import _json_text, main

from cases import GARBLING, PRIOR, TARGET

STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["", '"', "\\", '\\"', "\x00\x08\x1f\x7f", "é ✓ 𝄞", "  ", "a\nb\tc\r"]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, 5e-324, 0.1, -2.5]),
    STRINGS,
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(TREES)
def test_writer_equals_json_dumps_with_indent(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2)


def test_empty_and_nested_containers():
    for tree in ({}, [], (), {"a": {}}, [[], {}], {"x": [{"y": []}]}):
        assert _json_text(tree) == json.dumps(tree, indent=2)


def test_one_cli_call_leaves_no_cyclic_garbage(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"source": PRIOR.to_json(), "transition": GARBLING.to_json(), "target": TARGET.to_json()}))
    for command in ("decompose", "find-witness", "verify-smpc", "is-mpc", "solve-persuasion"):
        argv = [command, str(path)]
        main(argv)  # first calls build the parser and import lazily
        gc.collect()
        gc.disable()
        try:
            main(argv)
            assert gc.collect() == 0, command
        finally:
            gc.enable()
    capsys.readouterr()
