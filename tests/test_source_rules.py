"""Rules on the package source itself: invariants are real exceptions,
so they still hold under `python -O`, which strips `assert` statements."""

from __future__ import annotations

import ast
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
