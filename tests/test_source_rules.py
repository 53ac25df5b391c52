"""Rules that hold for the package source as a whole."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rectilt"
PYPROJECT = SRC.parent.parent / "pyproject.toml"
BENCHMARK = SRC.parent.parent / "BENCHMARK.json"


def _names_a_module(package: Path, dotted: str) -> bool:
    path = package.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def test_no_assert_statements_in_the_package():
    # checks that guard the maths raise RectiltError: an assert vanishes under ``python -O``
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_script_entry_points_name_package_modules():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text()).get("project", {}).get("scripts", {})
    broken = []
    for name, target in scripts.items():
        package, _, module = target.partition(":")[0].partition(".")
        if package != "rectilt" or (module and not _names_a_module(SRC, module)):
            broken.append(f"{name} = {target}")
    assert not broken, broken


def test_relative_imports_name_existing_modules():
    # function-level imports included: ast.walk sees every ImportFrom
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    broken = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            package = SRC.parents[node.level - 2] if node.level > 1 else SRC
            modules = [node.module] if node.module else [a.name for a in node.names]
            broken += [f"{path.name}:{node.lineno} {'.' * node.level}{name}"
                       for name in modules if not _names_a_module(package, name)]
    assert not broken, broken


def test_traced_per_layer_metrics_name_public_functions():
    # the benchmark's tracer wraps public functions by their defining module;
    # a metric whose function is gone or private would silently read 0
    names = [m["name"].split(".") for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = {(layer, fn) for layer, fn, _ in (n for n in names if len(n) == 3)}
    assert ("rep", "hom_basis") in functions
    missing = []
    for layer, fn in sorted(functions):
        module = importlib.import_module(f"rectilt.{layer}")
        if fn == "mat_new":
            obj = module.Mat.__init__
        else:
            obj = getattr(module, fn, None)
            if fn.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                obj = None
        if not inspect.isfunction(obj):
            missing.append(f"{layer}.{fn}")
    assert not missing, missing


def test_gluing_compares_classes_by_roster_index():
    # a class the roster's entries lack has an index past them, so gluing never
    # needs to test two modules for isomorphism or pick one per class itself
    tree = ast.parse((SRC / "gluing.py").read_text())
    banned = {"same_class", "_same_classes", "basic_summands"}
    found = [f"gluing.py:{node.lineno} {alias.name}"
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name in banned]
    assert not found, found


def test_hom_system_layout_is_read_only_in_rep():
    # rep._blocks reads a Hom-system vector's layout; tilting and gluing take
    # kernels, images and radicals from rep and never see the system itself
    banned = {"_intertwining_rows", "_kernel_ints"}
    found = [f"{name}:{node.lineno} {alias.name}"
             for name in ("tilting.py", "gluing.py")
             for node in ast.walk(ast.parse((SRC / name).read_text()))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name in banned]
    assert not found, found


def test_no_true_division_outside_path_joins():
    # "/" on two int entries gives a float, which is no longer exact; fixtures.py
    # uses it only to join pathlib paths
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "fixtures.py")
    assert paths, SRC
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert not found, found


def test_fraction_reads_caller_values_only_through_exact():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10; linalg._exact
    # refuses a float, so outside linalg.py a one-argument Fraction takes an int literal
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")
    assert paths, SRC
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Fraction"
             and len(node.args) + len(node.keywords) == 1
             and not (node.args and isinstance(node.args[0], ast.Constant)
                      and type(node.args[0].value) is int)]
    assert not found, found
