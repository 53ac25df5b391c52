"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rectilt"


def test_no_assert_statements_in_the_package():
    # checks that guard the maths raise RectiltError: an assert vanishes under ``python -O``
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
