"""The package's layering, read from each module's relative imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mpcmix"


def relative_imports(path):
    """The sibling modules that ``path`` imports: ``from .x import ...`` and ``from . import x``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


IMPORTS = {path.stem: relative_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_module_is_read():
    assert {"cli", "decomposition", "distributions", "persuasion", "randgen"} <= set(IMPORTS)


def test_randgen_imports_only_distributions():
    assert IMPORTS["randgen"] == {"distributions"}


@pytest.mark.parametrize("layer", ["decomposition", "randgen"])
def test_persuasion_does_not_import(layer):
    assert layer not in IMPORTS["persuasion"]


def test_only_the_cli_imports_randgen():
    assert {name for name, imports in IMPORTS.items() if "randgen" in imports} == {"cli"}
