"""Rules on the package source itself: invariants are real exceptions,
so they still hold under `python -O`, which strips `assert` statements;
the package needs nothing beyond the standard library and parses as
Python 3.10, its stated floor; importing the CLI stays off
`dataclasses`, `inspect`, `json` and `argparse`, which every command
would pay for at start-up; each command runs only the
layers it uses, and the polynomial ring only when its values are
polynomials; the core that every command compiles holds only scalar
code; a layer's first load is safe across threads; only `hankel`
divides exactly; the registry does not import the fit; one call
writes all JSON; one decorator holds the ring's operand rule and
subtraction is addition of the negation; `hankel`
clears and eliminates from `det_sequence` and `det_exact` only;
`_cleared` alone says whether the values it clears are numbers; the
public names stay what they are; and the names the benchmark tracer
wraps stay where it looks for them."""

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


def test_the_package_parses_as_python_3_10():
    # README and pyproject state a 3.10 floor; the suite runs on a later
    # Python, so newer syntax (`except*`, say) would otherwise pass here.
    found = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as error:
            found.append(f"{path.name}:{error.lineno}: {error.msg}")
    assert found == []


def test_json_is_written_by_one_call_in_json_table():
    # The rule that an exact value goes to JSON as its `str` is that one
    # call's `default=str`.
    found = [
        f"{path.name}:{getattr(top, 'name', '')}"
        for path in SOURCES
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dumps"
    ]
    assert found == ["hankel.py:json_table"]
    assert {where.partition(":")[0] for where, name in _imports() if name == "json"} == {
        "hankel.py"
    }


COERCED_OPERATORS = {
    "Polynomial": ("__add__", "__sub__", "__rsub__", "__mul__", "__divmod__"),
    "RationalFunction": ("__add__", "__sub__", "__rsub__", "__mul__",
                         "__truediv__", "__rtruediv__"),
    "PowerSeries": ("__add__", "__sub__", "__eq__"),
}


def test_the_operand_rule_is_written_once_in_ring_coerced():
    # Each binary operator of the ring takes its other operand through
    # `_coerced`, the one caller of `_wrap_other`.  It copies no
    # `__wrapped__`, which the benchmark tracer uses to mark its own wrappers.
    found = [
        f"{path.name}:{getattr(top, 'name', '')}"
        for path in SOURCES
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_wrap_other"
    ]
    assert found == ["ring.py:_coerced"]
    ring = importlib.import_module("hankelab.ring")
    for cname, coerced in COERCED_OPERATORS.items():
        operators = {name: fn for name, fn in vars(getattr(ring, cname)).items()
                     if name.startswith("__") and callable(fn)}
        assert [name for name, fn in operators.items() if hasattr(fn, "__wrapped__")] == []
        assert {operators[name].__qualname__ for name in coerced} == {
            "_coerced.<locals>.coerced"
        }
    # Subtraction is written once, as addition of the negation: no class
    # keeps a `_minus`, and each `__sub__` and `__rsub__` wraps a lambda
    # that adds, so every subtraction runs the class's `__add__`.
    tree = ast.parse((PACKAGE / "ring.py").read_text())
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_minus"] == []
    adding = {
        (cls.name, target.id)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(call := node.value, ast.Call)
        and getattr(call.func, "id", None) == "_coerced"
        and isinstance(fn := call.args[0], ast.Lambda)
        and isinstance(fn.body, ast.BinOp) and isinstance(fn.body.op, ast.Add)
    }
    subtractions = {(cname, name) for cname, names in COERCED_OPERATORS.items()
                    for name in names if name in ("__sub__", "__rsub__")}
    assert subtractions - adding == set()


def test_only_hankel_divides_exactly():
    # The fraction-free Chebyshev rows and the elimination, both in
    # `hankel`, make the package's only exact divisions; the fit reads
    # the rows and divides nothing itself.  A name is a `Name`'s id, an
    # attribute, or the name of a definition or an imported alias.
    found = {
        path.stem
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "exact_divide" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    }
    assert found == {"exactnum", "hankel"}


def test_hankel_clears_and_eliminates_from_two_places_only():
    # `det_sequence` clears its moments once and reads every minor off the
    # Chebyshev rows; `det_exact` clears its rows once and is the one caller
    # of the elimination.  No wrapper clears again, patches the ring of a
    # zero afterwards, or keeps a second kernel for leading minors.
    tree = ast.parse((PACKAGE / "hankel.py").read_text())
    found = {
        (node.func.id, top.name)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("_cleared", "_det")
    }
    assert found == {("_cleared", "det_sequence"), ("_cleared", "det_exact"),
                     ("_det", "det_exact")}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint({"_minors", "_hankel_rows", "_leading_minors"})
    assert "zero_until" not in _names(tree)


def _functions(module: str) -> dict:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _names(node) -> set:
    return {getattr(sub, key) for sub in ast.walk(node)
            for key in ("id", "attr") if hasattr(sub, key)}


def test_cleared_alone_decides_whether_the_values_are_numbers():
    # `_cleared`'s scale is None for ring values, and the Chebyshev entry
    # points read that verdict rather than test the values again.
    hankel, orthopoly = _functions("hankel"), _functions("orthopoly")
    assert not {"kind", "POLYNOMIAL"} & _names(hankel["det_sequence"])
    assert "_is_scalar" not in _names(hankel["det_exact"])
    assert "_is_scalar" not in _names(orthopoly["fit_recurrence"])
    assert "_lift" not in orthopoly
    args = orthopoly["_fit_field"].args
    assert len(args.posonlyargs + args.args + args.kwonlyargs) == 1
    assert args.vararg is None and args.kwarg is None


def test_the_entries_alone_name_a_determinants_one():
    # D_0 and an empty matrix are 1 in their entries' ring, which
    # `_one_of` reads; the determinant layer learns a spec only through
    # its terms, and the pencil check runs no type test of its own.
    tree = ast.parse((PACKAGE / "hankel.py").read_text())
    hankel, orthopoly = _functions("hankel"), _functions("orthopoly")
    imported = {alias.name for alias in ast.walk(tree) if isinstance(alias, ast.alias)}
    assert not {"kind", "POLYNOMIAL", "_ring_one"} & (_names(tree) | imported | set(hankel))
    pencil = orthopoly["pencil_identity_check"]
    assert not {"_is_scalar", "Polynomial"} & _names(pencil)
    for caller in (hankel["det_sequence"], hankel["_matrix"], pencil):
        assert "_one_of" in _names(caller)


def test_the_core_that_every_command_compiles_holds_only_scalar_code():
    # Structured values (polynomials, rational functions, power series)
    # are `ring`'s, which only commands with such values compile.
    tree = ast.parse((PACKAGE / "exactnum.py").read_text())
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == ["VariableMismatchError", "_Frozen", "_Value"]


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
        "print(sorted({'dataclasses', 'inspect', 'json', 'argparse', 'gettext', "
        "'locale'} & set(sys.modules)))"
    )
    before = _bytecode()
    assert _run_isolated(code) == "[]\n"
    # A checkout holding bytecode starts each command faster, which would
    # skew a benchmark run after the tests.
    assert _bytecode() == before


# Runs `import hankelab` and then, by MODE, nothing (package), ARGS as
# names read from the package (read), or `import hankelab.cli` and each
# of ARGS, split at spaces, as a command in turn (cli); it prints each
# layer and the ring as executed or deferred.  A deferred module is not a
# plain module, and `type()` reads no attribute of it, so the probe loads
# nothing.
LOAD_PROBE = """
import contextlib, io, sys, types
src, mode, *args = sys.argv[1:]
sys.path.insert(0, src)
import hankelab
if mode == "read":
    for name in args:
        getattr(hankelab, name)
if mode == "cli":
    import hankelab.cli
    for command in args:
        with contextlib.redirect_stdout(io.StringIO()):
            if hankelab.cli.run(command.split()):
                sys.exit("command failed: " + command)
for name in ("exactnum", "hankel", "lattice", "orthopoly", "registry", "sequences", "ring"):
    module = sys.modules["hankelab." + name]
    print(name, "executed" if type(module) is types.ModuleType else "deferred")
"""
EAGER = {"exactnum", "hankel", "sequences"}


# The benchmark commands whose values are all rational: the registry ids
# of `registry-sweep` with a rational spec and every `numeric-elimination`
# command.  Run in one process, they must leave the ring deferred.
RATIONAL_COMMANDS = (
    *(f"verify {formula_id}" for formula_id in (
        "thm2.1-d0", "thm2.1-d1", "thm2.2-D0", "thm2.2-D1", "thm2.3-d0",
        "thm2.3-d1", "thm2.4-D0", "thm2.4-D1", "eq3.6", "eq3.7", "eq3.10",
        "eq3.12", "cor4.3", "eq4.10", "thm5.1", "eq1.22", "eq1.23", "u-d0",
        "u-d1", "thm7.3", "d-n-5", "d-n-6", "d-n-7", "d-n-8", "conj7.2",
        "conj7.5")),
    "hankel catalan --n-max 40",
    "hankel catalan|double-signed --n-max 32",
    "hankel catconv:r=5 --n-max 32",
    "hankel catalan|double-signed|aerate --n-max 32 --offset 1",
    "hankel u:r=3|double-signed --n-max 24",
    "fit catalan|double-signed --depth 160",
)


@pytest.mark.parametrize(("mode", "args", "executed"), [
    ("package", (), set()),
    ("read", ("terms",), {"exactnum", "sequences"}),
    ("read", ("det_sequence",), EAGER),
    ("read", ("PowerSeries",), {"exactnum", "ring"}),
    ("cli", (), EAGER),
    ("cli", ("hankel catalan --n-max 3",), EAGER),
    ("cli", ("seq catalan --terms 3",), EAGER),
    ("cli", ("seq u:r=3 --terms 5",), EAGER),
    ("cli", ("fit catalan --depth 2",), EAGER | {"orthopoly"}),
    ("cli", ("verify thm2.1-d0",), EAGER | {"registry"}),
    ("cli", RATIONAL_COMMANDS, EAGER | {"orthopoly", "registry"}),
    ("cli", ("hankel narayana --n-max 2",), EAGER | {"ring"}),
    ("cli", ("verify thm5.2",), EAGER | {"registry", "lattice", "ring"}),
    ("cli", ("lgv --n 2",), EAGER | {"lattice", "ring"}),
], ids=["import hankelab", "hankelab.terms", "hankelab.det_sequence",
        "hankelab.PowerSeries", "import hankelab.cli", "hankel", "seq", "seq u", "fit",
        "verify", "rational benchmark commands", "hankel polynomial", "verify polynomial",
        "lgv"])
def test_each_command_runs_only_the_layers_it_uses(mode, args, executed):
    states = dict(line.split() for line in _run_isolated(LOAD_PROBE, mode, *args).splitlines())
    assert states == {name: "executed" if name in executed else "deferred"
                      for name in [*PUBLIC_NAMES, "ring"]}


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


def test_exactnum_hands_out_the_ring_names():
    from hankelab import exactnum, ring
    from hankelab.exactnum import Polynomial, PowerSeries, RationalFunction, poly_gcd

    assert (Polynomial, RationalFunction, poly_gcd, PowerSeries) == (
        ring.Polynomial, ring.RationalFunction, ring.poly_gcd, ring.PowerSeries)
    for cls in (Polynomial, RationalFunction, PowerSeries):
        assert cls.__module__ == "hankelab.ring"
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        exactnum.nosuch


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
