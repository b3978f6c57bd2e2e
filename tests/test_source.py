"""Checks on the library's source text."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "surgeon"


def test_library_has_no_assert():
    # `python -O` drops assert statements, so a check the library relies
    # on must raise an exception instead.
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
