"""Rules on the package source itself: invariants are real exceptions,
so they still hold under `python -O`, which strips `assert` statements;
the package needs nothing beyond the standard library; importing the
CLI stays off `dataclasses`, `inspect` and `json`, which every command
would pay for at start-up; each command runs only the layers it uses,
and a layer's first load is safe across threads; the registry does not
import the fit; the public names stay what they are; and the names the
benchmark tracer wraps stay where it looks for them."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import hankelab
import hankelab.cli

PACKAGE = Path(hankelab.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _imports():
    """(where, module) for each import in the package.  A relative module
    keeps its leading dots: `from .hankel import x` and `from . import
    hankel` both give `.hankel`."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                dots = "." * node.level
                names = ([dots + node.module] if node.module
                         else [dots + alias.name for alias in node.names])
            else:
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}:{name}", name


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
    found = [
        where for where, name in _imports()
        if not name.startswith(".") and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


def test_the_package_does_not_import_dataclasses():
    assert [where for where, name in _imports() if name.partition(".")[0] == "dataclasses"] == []


def test_the_registry_does_not_import_the_fit():
    # The paper's J-fraction references, the registry's one use of
    # `orthopoly`, are test oracles in `tests/oracles.py`.
    found = [
        where for where, name in _imports()
        if where.startswith("registry.py:") and name in (".orthopoly", "hankelab.orthopoly")
    ]
    assert found == []


def _run_isolated(code: str, *args: str) -> str:
    """Stdout of `python -c code SRC ARGS...`.  -I -S keeps the host's
    site-packages and .pth files out; -B keeps bytecode out of `src/`,
    since -I ignores PYTHONDONTWRITEBYTECODE."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(PACKAGE.parent), *args],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _bytecode() -> dict:
    """The package's cached bytecode files, with their modification times."""
    return {path.name: path.stat().st_mtime_ns for path in PACKAGE.glob("__pycache__/*")}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import hankelab.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    )
    before = _bytecode()
    assert _run_isolated(code) == "[]\n"
    # A checkout holding bytecode starts each command faster, which would
    # skew a benchmark run after the tests.
    assert _bytecode() == before


# Runs `import hankelab` (MODE package) or `import hankelab.cli` and then
# ARGV as a command, and prints each layer as executed or deferred.  A
# deferred layer is not a plain module, and `type()` reads no attribute of
# it, so the probe loads nothing.
LOAD_PROBE = """
import contextlib, io, sys, types
src, mode, *argv = sys.argv[1:]
sys.path.insert(0, src)
import hankelab
if mode == "cli":
    import hankelab.cli
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            if hankelab.cli.run(argv):
                sys.exit("command failed")
for name in ("exactnum", "hankel", "lattice", "orthopoly", "registry", "sequences"):
    module = sys.modules["hankelab." + name]
    print(name, "executed" if type(module) is types.ModuleType else "deferred")
"""
EAGER = {"exactnum", "hankel", "sequences"}


@pytest.mark.parametrize(("mode", "argv", "executed"), [
    ("package", (), set()),
    ("cli", (), EAGER),
    ("cli", ("hankel", "catalan", "--n-max", "3"), EAGER),
    ("cli", ("seq", "catalan", "--terms", "3"), EAGER),
    ("cli", ("fit", "catalan", "--depth", "2"), EAGER | {"orthopoly"}),
    ("cli", ("verify", "thm5.2"), EAGER | {"registry", "lattice"}),
], ids=["import hankelab", "import hankelab.cli", "hankel", "seq", "fit", "verify"])
def test_each_command_runs_only_the_layers_it_uses(mode, argv, executed):
    states = dict(line.split() for line in _run_isolated(LOAD_PROBE, mode, *argv).splitlines())
    assert states == {name: "executed" if name in executed else "deferred"
                      for name in PUBLIC_NAMES}


def test_threads_reading_a_layer_first_all_wait_for_its_load():
    # Eight threads read `registry`, whose first load also runs four other
    # layers; each must get the one `formula_ids`, never a half-run module.
    code = """
import sys, threading
sys.path.insert(0, sys.argv[1])
sys.setswitchinterval(1e-6)
import hankelab
start = threading.Barrier(8)
found, errors = [], []
def read():
    start.wait()
    try:
        found.append(hankelab.registry.formula_ids)
    except Exception as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=read) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(30)
print(errors, sum(thread.is_alive() for thread in threads), len(found), len(set(map(id, found))))
"""
    assert _run_isolated(code) == "[] 0 8 1\n"


# The package's public names, in order, under the layer that defines each.
PUBLIC_NAMES = {
    "exactnum": (
        "Polynomial", "PowerSeries", "RationalFunction", "VariableMismatchError",
        "binomial", "exact_divide", "poly_gcd",
    ),
    "hankel": (
        "DetSequence", "HankelMatrix", "csv_cell", "det_cofactor", "det_exact",
        "det_sequence", "hankel_matrix",
    ),
    "lattice": (
        "LGV_LIMIT", "dual_sum", "dual_sum_closed", "dual_sum_total",
        "lgv_bruteforce", "lgv_matrix", "weighted_triangle_entry",
    ),
    "orthopoly": (
        "JacobiData", "PencilCheck", "Triangle", "ZeroHankelMinorError",
        "aerated_triangle", "aeration_collapse", "det_product_formula",
        "fit_recurrence", "fit_spec", "moment_functional",
        "moments_from_recurrence", "ortho_value", "pencil_identity_check",
        "poly_from_recurrence", "shifted_det", "triangle",
    ),
    "registry": (
        "Counterexample", "FormulaInfo", "ReportEntry", "VerificationReport",
        "binomial_sum_identity", "binomial_sum_series", "closed_form",
        "formula_ids", "formula_info", "scan", "verify",
    ),
    "sequences": (
        "SequenceSpec", "SpecError", "Transform", "catalan_convolution",
        "catalan_number", "catalan_series", "conv_poly", "f_number",
        "fibonacci_number", "fibonacci_poly", "lucas_number", "lucas_poly",
        "narayana_b_poly", "narayana_poly", "narayana_series", "parse_spec",
        "q_integer", "terms", "u_number",
    ),
}


def test_the_public_names_are_pinned_in_order():
    pinned = [name for names in PUBLIC_NAMES.values() for name in names]
    assert len(pinned) == 67
    assert hankelab.__all__ == pinned
    for layer, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"hankelab.{layer}")
        assert sorted(module.__all__) == list(names)
        for name in names:
            assert name in module.__all__
            assert getattr(hankelab, name) is getattr(module, name)


def test_the_package_lists_and_star_imports_every_public_name():
    assert set(hankelab.__all__) <= set(dir(hankelab))
    namespace = {}
    exec("from hankelab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hankelab.__all__)
    for layer, names in PUBLIC_NAMES.items():
        module = importlib.import_module(f"hankelab.{layer}")
        for name in names:
            assert namespace[name] is getattr(module, name)


# `perfbench/tracer.py` imports `hankelab.cli`, then wraps each layer's
# public functions in every module that binds them, the report renderers
# on their classes and the counted `exactnum` operations.  Only the
# benchmark's own tests exercised these names, so a rename or a lazy
# import could break the tracer unseen.  The rule holds until tracing
# moves into the package (ROADMAP open item 5).
TRACED_ALIASES = (
    ("hankel", "terms", "sequences"),
    ("orthopoly", "terms", "sequences"),
    ("cli", "terms", "sequences"),
    ("registry", "det_sequence", "hankel"),
    ("cli", "det_sequence", "hankel"),
    ("orthopoly", "det_exact", "hankel"),
    ("cli", "det_exact", "hankel"),
    ("hankel", "exact_divide", "exactnum"),
    ("cli", "fit_spec", "orthopoly"),
)
SPAN_LAYERS = ("registry", "lattice", "orthopoly", "hankel", "sequences")
RENDERERS = (
    ("hankel", "DetSequence"),
    ("orthopoly", "JacobiData"),
    ("registry", "VerificationReport"),
)
COUNTED_METHODS = (
    ("Polynomial", ("__mul__", "__rmul__", "__add__", "__radd__")),
    ("PowerSeries", ("__mul__", "__rmul__", "invert", "__pow__")),
    ("RationalFunction",
     ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__", "__pow__")),
)


def test_the_names_the_benchmark_tracer_wraps_stay_bound():
    layers = {name: sys.modules[f"hankelab.{name}"] for name in SPAN_LAYERS}
    for user, name, owner in TRACED_ALIASES:
        used = getattr(sys.modules[f"hankelab.{user}"], name)
        assert used is getattr(sys.modules[f"hankelab.{owner}"], name)
    for module in layers.values():
        assert all(hasattr(module, name) for name in module.__all__)
    for layer, cls in RENDERERS:
        assert {"csv_text", "json_text"} <= set(vars(getattr(layers[layer], cls)))
    for cls, methods in COUNTED_METHODS:
        assert set(methods) <= set(vars(getattr(hankelab.exactnum, cls)))
    for fn in (hankelab.exactnum.poly_gcd, hankelab.exactnum.exact_divide,
               layers["sequences"].narayana_series):
        assert callable(fn)
