"""Checks on the library's source text."""

import ast
import importlib
import inspect
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "surgeon"


def source_nodes():
    """(file name, node) for every syntax node of the library's modules."""
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            yield path.name, node


def test_library_has_no_assert():
    # `python -O` drops assert statements, so a check the library relies
    # on must raise an exception instead.
    found = [f"{name}:{node.lineno}" for name, node in source_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_layer_imports_a_function_by_name():
    # A layer calls another layer's functions through the defining module,
    # so that a wrapper there (a call counter, the benchmark tracer) sees
    # every call; a `from .layer import function` copy would escape it.
    found = [f"{name}:{node.lineno}: {node.module}.{alias.name}"
             for name, node in source_nodes()
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
             for alias in node.names
             if inspect.isfunction(getattr(importlib.import_module(f"surgeon.{node.module}"),
                                           alias.name))]
    assert found == []
