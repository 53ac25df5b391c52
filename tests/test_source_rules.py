"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rectilt"
PYPROJECT = SRC.parent.parent / "pyproject.toml"


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
