"""Golden CLI outputs: a refactor passes only if it changes no byte.

`golden_cli.json` holds, for a fixed set of commands, the exit code and
the exact stdout and stderr of `hankelab.cli.run`.  Recording is
append-only:

    PYTHONPATH=src python tests/test_golden.py --record

writes the outcome of each command in `COMMANDS` that the fixture does
not hold yet and keeps every stored case byte-for-byte.  If a stored
case's output now differs, it names that case, exits 1 and writes
nothing.  For an intended output change, delete that entry from the
fixture by hand and record again.  A command taken out of `COMMANDS`
leaves the fixture on the next recording.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hankelab import registry
from hankelab.cli import _COMMANDS, run

FIXTURE = Path(__file__).with_name("golden_cli.json")

SEQ_SPECS = (
    "catalan", "central-binomial", "catconv:r=3", "u:r=3", "fibonacci",
    "lucas", "f-number:r=3", "narayana", "narayana-b", "convpoly:m=5",
)

COMMANDS = (
    [["verify", id] for id in registry.formula_ids()]
    + [
        ["verify", "eq3.6", "--format", "json"],
        ["verify", "thm7.4", "--format", "json"],
        ["verify", "conj7.5", "--format", "json"],
    ]
    + [["seq", spec, "--terms", "10"] for spec in SEQ_SPECS]
    + [
        ["seq", "u:r=2|double-signed", "--terms", "9", "--format", "json"],
        ["seq", "convpoly:m=4", "--terms", "6", "--format", "json"],
        ["hankel", "catalan|double-signed|aerate", "--n-max", "12",
         "--offset", "1"],
        ["hankel", "catconv:r=3", "--n-max", "12", "--format", "json"],
        ["hankel", "narayana", "--n-max", "5"],
        ["fit", "catalan|double-signed", "--depth", "6"],
        ["fit", "narayana", "--depth", "4", "--format", "json"],
        ["lgv", "--n", "3"],
        ["seq", "nosuch", "--terms", "2"],
        ["verify", "eq3.6", "--r", "0"],
        ["fit", "narayana", "--depth", "3"],
        ["fit", "catalan|double-signed", "--depth", "4", "--format", "json"],
        ["lgv", "--n", "2", "--format", "json"],
        ["verify", "conj7.2", "--format", "json"],
        ["scan", "conj7.5", "--k-max", "1"],
        ["scan", "conj7.5", "--k-max", "1", "--format", "json"],
        ["scan", "conj7.7", "--k-max", "2", "--n-max", "3"],
        ["scan", "d-n-5", "--n-max", "12"],
        ["verify", "eq3.10", "--r", "2", "--format", "json"],
        ["seq", "catalan", "--terms", "0"],
        ["seq", "catalan", "--terms", "0", "--format", "json"],
    ]
    # Error lines; where two parameters are bad these pin which one wins.
    + [
        ["verify", "conj7.2", "--n-max", "3", "--r", "1"],
        ["verify", "thm7.3", "--n-max", "-1", "--r", "2"],
        ["scan", "conj7.6", "--k-max", "0", "--n-max", "-1"],
        ["scan", "conj7.7", "--k-max", "0", "--n-max", "-1"],
        ["scan", "conj7.2", "--k-max", "0"],
        ["scan", "nosuch"],
        ["verify", "thm7.3", "--r", "2"],
        ["verify", "eq3.6", "--n-max", "-1", "--r", "0"],
        ["scan", "thm7.3", "--k-max", "9"],
    ]
    # Fits over Q: non-integer moments, zero minors and a deep fit.
    + [
        ["fit", "narayana|eval:t=-1/3", "--depth", "5"],
        ["fit", "u:r=3|double-signed", "--depth", "6", "--format", "json"],
        ["fit", "catalan|double-signed", "--depth", "40"],
        ["fit", "catalan|aerate", "--depth", "4"],
        ["fit", "catconv:r=5", "--depth", "4"],
    ]
    # The convolution patterns past their first periods.
    + [
        ["verify", "thm5.1", "--n-max", "30"],
        ["verify", "d-n-5", "--n-max", "30"],
        ["verify", "d-n-6", "--n-max", "24"],
        ["verify", "d-n-7", "--n-max", "28"],
        ["verify", "d-n-8", "--n-max", "24"],
        ["verify", "thm7.3", "--n-max", "24"],
        ["verify", "thm7.4", "--n-max", "12"],
        ["scan", "conj7.6", "--n-max", "10"],
        ["scan", "conj7.7", "--k-max", "4", "--n-max", "3"],
        ["scan", "conj7.2", "--k-max", "4"],
        ["scan", "conj7.5", "--k-max", "5"],
    ]
    # Spec parse errors and the negative n_max of `hankel`.
    + [
        ["seq", "catalan:r=2", "--terms", "2"],
        ["seq", "catconv:k=2", "--terms", "2"],
        ["seq", "catconv:r=x", "--terms", "2"],
        ["seq", "catconv:r=0", "--terms", "2"],
        ["seq", "catalan|aerate:1", "--terms", "2"],
        ["seq", "catalan|shift:x", "--terms", "2"],
        ["seq", "catalan|scale:1/0", "--terms", "2"],
        ["seq", "narayana|eval:t=q", "--terms", "2"],
        ["seq", "narayana|abs:1", "--terms", "2"],
        ["hankel", "catalan", "--n-max", "-1"],
    ]
    # Each transform's error lines, in the order the parser checks them.
    + [
        ["seq", spec, "--terms", "2"]
        for spec in ("catalan|bogus", "narayana|abs", "catalan|eval:t=1",
                     "narayana|eval:x=1", "catalan|shift", "catalan|shift:-1",
                     "catalan|scale", "narayana|eval")
    ]
    # Transform pipelines: each stage asks the one below for what it needs.
    + [
        ["seq", "catalan|double-signed|aerate|consecutive-sum", "--terms", "9"],
        ["seq", "narayana|shift:2|eval:t=-1/2|abs", "--terms", "7",
         "--format", "json"],
        ["seq", "u:r=2|aerate|double-signed|shift:1", "--terms", "1"],
        ["seq", "convpoly:m=3|consecutive-sum|aerate", "--terms", "0"],
        ["hankel", "narayana|double-signed|consecutive-sum", "--n-max", "4"],
        ["fit", "narayana|aerate|aerate", "--depth", "3"],
    ]
    # Usage errors, worded as the command line has always worded them.
    + [
        [],
        ["nosuch"],
        ["seq", "catalan"],
        ["seq", "--terms", "3"],
        ["seq", "catalan", "--terms", "x"],
        ["seq", "catalan", "--terms"],
        ["hankel", "catalan", "--n-max", "3", "--offset", "2"],
        ["seq", "catalan", "--terms", "3", "--format", "yaml"],
        ["seq", "catalan", "--terms", "3", "extra"],
        ["hankel", "catalan", "--n-max", "3", "--bogus"],
    ]
    # Option spellings: a unique prefix, an attached value, a repeat.
    + [
        ["hankel", "catalan", "--n-m", "3"],
        ["hankel", "catalan", "--n-max=3"],
        ["verify", "thm5.1", "--n", "3"],
        ["lgv", "--n", "3", "--n", "4"],
    ]
    # A '--', where this parser and argparse differ: the first ends the
    # options and is dropped, and a later one or one after '=' is a value.
    # A spaced argument that names no flag is a value.
    + [
        ["seq", "--terms", "2", "--", "catalan"],
        ["seq", "catalan", "--", "--terms", "2"],
        ["hankel", "catalan", "--n-max", "2", "--", "--"],
        ["seq", "catalan", "--terms=--"],
        ["seq", "-a b", "--terms", "2"],
    ]
    # Determinants past a vanishing minor: larger orders, a polynomial
    # spec at offset 1, a(0) = 0, and matrices whose every column is zero.
    + [
        ["hankel", "catconv:r=3", "--n-max", "30"],
        ["hankel", "catalan|double-signed|aerate", "--n-max", "24", "--offset", "1"],
        ["hankel", "narayana|aerate", "--n-max", "8", "--offset", "1"],
        ["hankel", "fibonacci", "--n-max", "6"],
        ["hankel", "narayana|scale:0", "--n-max", "3"],
        ["hankel", "catalan|scale:0", "--n-max", "3", "--format", "json"],
    ]
    # Ring arithmetic at depth: a fit whose s and t are rational functions
    # with nontrivial denominators, a polynomial Hankel case of order 12,
    # and specs whose first vanishing minor is the last one asked for.
    + [
        ["fit", "convpoly:m=5", "--depth", "6"],
        ["hankel", "convpoly:m=6", "--n-max", "12"],
        ["hankel", "catconv:r=3", "--n-max", "2"],
        ["hankel", "fibonacci", "--n-max", "1"],
        ["hankel", "narayana|aerate", "--n-max", "1", "--offset", "1"],
        ["hankel", "catconv:r=7", "--n-max", "4", "--format", "json"],
    ]
    # The Q(t) fit past depth 6 and at depths 0, 1 and 2, and polynomial
    # moments with a denominator.
    + [
        ["fit", "narayana-b", "--depth", "8"],
        ["fit", "narayana|shift:1", "--depth", "6", "--format", "json"],
        ["fit", "narayana", "--depth", "12"],
        ["fit", "convpoly:m=4", "--depth", "1"],
        ["fit", "narayana", "--depth", "0"],
        ["fit", "narayana|aerate", "--depth", "2"],
        ["hankel", "narayana|scale:1/2", "--n-max", "6"],
    ]
    # The JSON report of every id not pinned in JSON above.
    + [
        ["verify", id, "--format", "json"] for id in registry.formula_ids()
        if id not in ("eq3.6", "thm7.4", "conj7.5", "conj7.2")
    ]
    # Order 0: D_0 and the empty LGV matrix, each 1 in its entries' ring.
    + [
        ["hankel", "narayana", "--n-max", "0"],
        ["hankel", "narayana|aerate", "--n-max", "0", "--offset", "1"],
        ["hankel", "catalan", "--n-max", "0"],
        ["hankel", "narayana|eval:t=2", "--n-max", "0", "--format", "json"],
        ["lgv", "--n", "0"],
        ["lgv", "--n", "0", "--format", "json"],
    ]
    # Runs of vanishing minors: blocks of 2 to 5 zeros, over Z and Z[t],
    # and catconv:r=3 at orders where elimination was the slow path.
    + [
        ["hankel", "catconv:r=3|aerate|aerate", "--n-max", "24"],
        ["hankel", "catalan|aerate|aerate", "--n-max", "24", "--offset", "1"],
        ["hankel", "narayana|aerate|aerate", "--n-max", "9", "--offset", "1"],
        ["hankel", "catalan|double-signed|aerate", "--n-max", "40", "--offset", "1"],
        ["hankel", "catconv:r=3", "--n-max", "120"],
        ["hankel", "catconv:r=3", "--n-max", "300"],
    ]
)


def _outcome(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> list:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_the_command_set(golden):
    assert [case["argv"] for case in golden] == COMMANDS


def test_every_subcommand_is_pinned_in_both_formats(golden):
    pinned = {
        (case["argv"][0], "json" if "json" in case["argv"] else "csv")
        for case in golden if case["exit"] == 0
    }
    wanted = {(name, fmt) for name in _COMMANDS for fmt in ("csv", "json")}
    assert wanted - pinned == set()


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(argv) for argv in COMMANDS])
def test_cli_output_is_unchanged(golden, index):
    assert _outcome(COMMANDS[index]) == golden[index]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    stored = {tuple(case["argv"]): case for case in
              json.loads(FIXTURE.read_text(encoding="utf-8"))}
    changed = [" ".join(argv) for argv in COMMANDS
               if tuple(argv) in stored and _outcome(argv) != stored[tuple(argv)]]
    if changed:
        sys.exit("stored output differs (delete the entry to re-record):\n  "
                 + "\n  ".join(changed))
    cases = [stored.get(tuple(argv)) or _outcome(argv) for argv in COMMANDS]
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
