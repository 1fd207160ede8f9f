"""The package's layering, read from each module's relative imports."""

import ast
import dataclasses
from pathlib import Path

import pytest

import mpcmix
from mpcmix.lp import StandardFormLP

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


def _named(node, name):
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == name


def callers(name, package=PACKAGE):
    """``module.qualname`` of each function in ``package`` that calls ``name`` or passes it to a call.

    A name passed as an argument, as in ``map(name, rows)`` or ``sorted(xs, key=name)``,
    counts once per call that it is passed to, as a call of it does.
    """
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                arguments = [*child.args, *(keyword.value for keyword in child.keywords)]
                passed = [arg.value if isinstance(arg, ast.Starred) else arg for arg in arguments]
                if _named(child.func, name) or any(_named(arg, name) for arg in passed):
                    found.append(".".join([module, *scope]))
            visit(child, module, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return found


def test_callers_counts_a_name_passed_to_a_call(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def write(rows):\n    return list(map(encode, rows))\n\n\n"
        "def order(xs):\n    return sorted(xs, key=encode)\n\n\n"
        "def call(x):\n    return encode(x)\n",
        encoding="utf-8",
    )
    assert callers("encode", tmp_path) == ["mod.write", "mod.order", "mod.call"]


def test_only_the_basis_state_eliminates():
    assert callers("_echelon") == ["decomposition._Basis.of"]


def test_only_persuasion_solves_an_lp():
    assert [c for c in callers("solve") if not c.startswith("lp.")] == ["persuasion._solve_on_grid"]


def test_the_lp_is_stated_in_equality_form():
    # Every row is an equation: an inequality states its own slack column.
    assert [f.name for f in dataclasses.fields(StandardFormLP)] == ["objective", "constraint_matrix", "rhs"]


def test_the_lp_makes_one_fraction_and_returns_an_integer_row():
    # The value is the one Fraction; the solution is an integer row, which
    # the persuasion solve reads as the target's weights without converting it.
    assert [c for c in callers("Fraction") if c.startswith("lp.")] == ["lp._Tableau.solve"]
    assert "persuasion._solve_on_grid" not in callers("integer_row")


def test_the_persuasion_solve_decides_no_order():
    # The LP's rows impose the order, and the left-curtain builder's checked
    # triple proves it, so the solve runs the builder without a decision.
    assert not [c for c in callers("find_witness") + callers("mpc_violation") if c.startswith("persuasion.")]
    assert callers("_left_curtain") == ["distributions.find_witness", "persuasion._solve_on_grid"]


def test_the_top_level_api_names_no_lp_type():
    assert not [name for name in mpcmix.__all__ if getattr(mpcmix, name).__module__ == "mpcmix.lp"]
    assert not {"LPOutcome", "StandardFormLP", "solve_lp"} & set(dir(mpcmix))


def test_the_public_surface_resolves():
    # A stale __all__ entry would otherwise fail only on a star import.
    assert len(set(mpcmix.__all__)) == len(mpcmix.__all__)
    assert [name for name in mpcmix.__all__ if not hasattr(mpcmix, name)] == []
    namespace = {}
    exec("from mpcmix import *", namespace)
    assert set(mpcmix.__all__) <= set(namespace)


def test_every_error_code_has_a_raiser():
    # Each MpcError subclass is named in a raise in some other module, so no
    # error code outlives the code that reports it.
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"MpcError"}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "errors":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    assert defined
    assert sorted(defined - raised) == []


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


def test_apply_transition_makes_no_fraction():
    # Barycenters are reduced integer pairs over their lcm, merged and sorted as integers.
    assert "distributions.apply_transition" not in callers("Fraction")
    assert "distributions.apply_transition" not in callers("integer_row")


def test_the_cli_makes_no_fraction():
    # --decimals reads its text through parse_rational, as every input is read.
    assert not [caller for caller in callers("Fraction") if caller.startswith("cli")]
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert "fractions" not in modules
