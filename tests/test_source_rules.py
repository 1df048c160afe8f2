"""Rules on the package source itself: invariants are real exceptions,
so they still hold under `python -O`, which strips `assert` statements;
the package needs nothing beyond the standard library; and importing the
CLI stays off `dataclasses` and `inspect`, which every command would pay
for at start-up."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import hankelab

SOURCES = sorted(Path(hankelab.__file__).parent.glob("*.py"))


def _imports():
    """(where, top-level module name) for each absolute import in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}:{name}", name.partition(".")[0]


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
    found = [where for where, top in _imports() if top not in sys.stdlib_module_names]
    assert found == []


def test_the_package_does_not_import_dataclasses():
    assert [where for where, top in _imports() if top == "dataclasses"] == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -I -S keeps the host's site-packages and .pth files out of the count.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hankelab.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = str(Path(hankelab.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
