"""The package's layering, read from each module's relative imports."""

import ast
from pathlib import Path

import pytest

import mpcmix

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


def callers(name):
    """``module.qualname`` of each function in the package that calls ``name``."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(".".join([module, *scope]))
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return found


def test_only_the_basis_state_eliminates():
    assert callers("_echelon") == ["decomposition._Basis.of"]


def test_only_persuasion_solves_an_lp():
    assert [c for c in callers("solve") if not c.startswith("lp.")] == ["persuasion._solve_on_grid"]


def test_the_persuasion_solve_decides_no_order():
    # The LP's rows impose the order, and the left-curtain builder's checked
    # triple proves it, so the solve runs the builder without a decision.
    assert not [c for c in callers("find_witness") + callers("mpc_violation") if c.startswith("persuasion.")]
    assert callers("_left_curtain") == ["distributions.find_witness", "persuasion._solve_on_grid"]


def test_the_top_level_api_names_no_lp_type():
    assert not [name for name in mpcmix.__all__ if getattr(mpcmix, name).__module__ == "mpcmix.lp"]
    assert not {"LPOutcome", "StandardFormLP", "solve_lp"} & set(dir(mpcmix))


def test_only_linalg_reads_a_rational():
    assert {caller.split(".")[0] for caller in callers("_ratio")} == {"linalg"}
    # Nor does another module import the reader, to pass it to map or the like.
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and "_ratio" in {alias.name for alias in node.names}:
                importers.add(path.stem)
    assert importers == set()


def test_only_the_to_json_methods_write_a_row():
    assert callers("row_text") == ["distributions.DiscreteDistribution.to_json", "distributions.TransitionMatrix.to_json"]


def test_the_cli_makes_no_fraction():
    # --decimals reads its text through parse_rational, as every input is read.
    assert not [caller for caller in callers("Fraction") if caller.startswith("cli")]
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert "fractions" not in modules
