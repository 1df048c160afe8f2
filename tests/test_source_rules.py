"""Rules on the package source itself: invariants are real exceptions,
so they still hold under `python -O`, which strips `assert` statements,
and the package needs nothing beyond the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import hankelab

SOURCES = sorted(Path(hankelab.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    assert len(SOURCES) >= 9
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_package_imports_only_the_standard_library():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []
