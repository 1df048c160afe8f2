"""Command line behavior: output bytes, exit codes, error paths."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hankelab import registry
from hankelab.cli import _COMMANDS, _lookup, run
from hankelab.registry import VerificationReport, _compared


def _capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_polynomial_csv(capsys):
    code, out, err = _capture(capsys, ["seq", "convpoly:m=3", "--terms", "3"])
    assert code == 0 and err == ""
    assert out == 'n,value\n0,"1"\n1,"2 + t"\n2,"3 + 5*t + t^2"\n'


def test_seq_polynomial_json(capsys):
    code, out, err = _capture(
        capsys, ["seq", "convpoly:m=3", "--terms", "3", "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out) == ["1", "2 + t", "3 + 5*t + t^2"]


def test_seq_number_csv_is_unquoted(capsys):
    code, out, err = _capture(capsys, ["seq", "catalan", "--terms", "4"])
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,2\n3,5\n"


def test_hankel_signed_catalan(capsys):
    code, out, err = _capture(
        capsys, ["hankel", "catalan|double-signed", "--n-max", "7"])
    assert code == 0
    values = [line.split(",")[1] for line in out.splitlines()[1:]]
    assert values == ["1", "1", "-2", "-3", "5", "8", "-13", "-21"]


def test_hankel_offset_json(capsys):
    code, out, err = _capture(
        capsys,
        ["hankel", "catalan", "--n-max", "3", "--offset", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out) == ["1", "1", "1", "1"]


def test_fit_csv(capsys):
    code, out, err = _capture(capsys, ["fit", "catalan", "--depth", "3"])
    assert code == 0
    assert out == "k,s,t\n0,1,1\n1,2,1\n2,2,\n"


def test_fit_json(capsys):
    code, out, err = _capture(
        capsys, ["fit", "catalan", "--depth", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"s": ["1", "2", "2"], "t": ["1", "1"]}


def test_fit_depth_zero_is_an_empty_table(capsys):
    code, out, err = _capture(capsys, ["fit", "catalan", "--depth", "0"])
    assert (code, out, err) == (0, "k,s,t\n", "")
    code, out, err = _capture(
        capsys, ["fit", "catalan", "--depth", "0", "--format", "json"])
    assert (code, err) == (0, "")
    assert out == '{\n  "s": [],\n  "t": []\n}\n'


def test_fit_negative_depth_names_the_depth(capsys):
    code, out, err = _capture(capsys, ["fit", "catalan", "--depth", "-1"])
    assert (code, out, err) == (2, "", "error: depth must be >= 0\n")


def test_verify_match_exits_zero(capsys):
    code, out, err = _capture(capsys, ["verify", "thm5.1", "--n-max", "12"])
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "n,expected,got,status"
    assert out.splitlines()[-1] == "verdict,match"


def test_verify_exact_rows(capsys):
    code, out, err = _capture(capsys, ["verify", "thm2.1-d0", "--n-max", "2"])
    assert code == 0
    assert out == ("n,expected,got,status\n"
                   "0,1,1,match\n1,1,1,match\n2,-2,-2,match\n"
                   "verdict,match\n")


def test_scan_conjecture_json(capsys):
    code, out, err = _capture(capsys, ["scan", "conj7.2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "CONJECTURE"
    assert data["verdict"] == "match"
    assert data["counterexamples"] == []


def test_lgv_match(capsys):
    code, out, err = _capture(capsys, ["lgv", "--n", "2"])
    assert code == 0
    assert out == 'n,lgv,det,status\n2,"-1 + t","-1 + t",match\n'


def test_lgv_json(capsys):
    code, out, err = _capture(capsys, ["lgv", "--n", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"n": 1, "lgv": "1", "det": "1", "status": "match"}


@pytest.mark.parametrize("argv", [
    [],
    ["seq", "catalan"],
    ["seq", "nosuch", "--terms", "2"],
    ["seq", "catalan", "--terms", "3", "--format", "yaml"],
    ["hankel", "catalan", "--n-max", "3", "--offset", "2"],
    ["fit", "catalan|double-signed|abs", "--depth", "3"],
    ["verify", "nope"],
    ["verify", "eq3.6", "--r", "0"],
    ["verify", "thm2.1-d0", "--r", "2"],
    ["scan", "conj7.2", "--k-max", "0"],
    ["lgv", "--n", "9"],
    ["seq", "narayana|eval:x=2", "--terms", "1"],
    ["scan", "thm7.3", "--k-max", "9"],
    ["scan", "conj7.6", "--k-max", "9"],
    ["verify", "conj7.2", "--n-max", "3"],
])
def test_errors_exit_two_with_one_line(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_names_every_argument_and_help_string(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = _capture(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: hankelab ")
    if command is None:
        wanted = [text for name, row in _COMMANDS.items() for text in (name, row[0])]
    else:
        about, positional, options, _ = _COMMANDS[command]
        wanted = [about, *(positional or ()), *(text for option in options
                                                for text in (option[0], option[4]))]
    assert [text for text in wanted if text not in out] == []


def test_help_wins_over_later_arguments_and_loses_to_earlier_errors(capsys):
    code, out, err = _capture(capsys, ["-h", "nosuch"])
    assert (code, err) == (0, "") and "commands:" in out
    code, out, err = _capture(capsys, ["seq", "-h", "--terms", "x"])
    assert (code, err) == (0, "") and "--terms TERMS" in out
    code, out, err = _capture(capsys, ["seq", "--terms", "x", "-h"])
    assert (code, out) == (2, "")
    assert err == "error: argument --terms: invalid int value: 'x'\n"


def test_a_short_help_flag_may_repeat_but_takes_no_value(capsys):
    code, out, err = _capture(capsys, ["seq", "-hh"])
    assert (code, err) == (0, "") and "--terms TERMS" in out
    for argv, value in ((["-hhx"], "x"), (["seq", "-h="], ""), (["seq", "-h=hx"], "x"),
                        (["seq", "--help=h"], "h")):
        code, out, err = _capture(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: argument -h/--help: ignored explicit argument {value!r}\n"


@pytest.mark.parametrize(("arg", "found"), [
    ("catalan", ()),
    ("-", ()),
    ("--", ()),
    ("-1", ()),
    ("-2.5", ()),
    ("-.5", ()),
    ("-1.", (None, None)),
    ("-x", (None, None)),
    ("--bogus", (None, None)),
    ("--alpha", ("--alpha", None)),
    ("--al", ("--alpha", None)),
    ("--al=-3", ("--alpha", "-3")),
    ("--beta=", ("--beta", "")),
    ("-h", ("-h", None)),
    ("-hx", ("-h", "x")),
    ("-a b", ()),
    ("--al b", ()),
    ("--alpha=a b", ("--alpha", "a b")),
])
def test_an_argument_is_a_flag_an_unknown_option_or_a_value(arg, found):
    assert _lookup(arg, ("-h", "--help", "--alpha", "--beta", "--betty")) == found


def test_an_ambiguous_prefix_names_every_flag_it_matches():
    with pytest.raises(ValueError, match="^ambiguous option: --bet could match --beta, --betty$"):
        _lookup("--bet", ("--alpha", "--beta", "--betty"))


def test_option_values_may_be_attached_and_the_last_one_wins(capsys):
    argv = ["hankel", "--n-max=9", "catalan", "--offset=1", "--n-max", "2", "--f", "json"]
    assert _capture(capsys, argv) == (0, '[\n  "1",\n  "1",\n  "1"\n]\n', "")


def test_no_option_takes_a_double_dash_as_its_value(capsys):
    code, out, err = _capture(capsys, ["hankel", "catalan", "--n-max", "--", "2"])
    assert (code, out, err) == (2, "", "error: argument --n-max: expected one argument\n")


def test_mismatch_exits_one(capsys, monkeypatch):
    entry = _compared(0, Fraction(1), Fraction(2))
    fake = VerificationReport(id="thm5.1", label="THEOREM", params={},
                              entries=(entry,), counterexamples=())

    monkeypatch.setattr(registry, "verify", lambda id, n_max=None, r=None: fake)
    code, out, err = _capture(capsys, ["verify", "thm5.1"])
    assert code == 1
    assert out.splitlines()[-1] == "verdict,mismatch"


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, err = _capture(
            capsys, ["scan", "conj7.7", "--format", "json"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_console_script_matches_run(capsys):
    # `python -m hankelab` prints what `run` prints and exits with its
    # code; a usage error is one stderr line and exit code 2.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    for argv, code in ((["seq", "convpoly:m=3", "--terms", "3"], 0),
                       (["seq", "catalan", "--terms", "3"], 0),
                       (["seq", "catalan", "--terms", "x"], 2)):
        proc = subprocess.run([sys.executable, "-m", "hankelab", *argv],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == _capture(capsys, argv)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == (code == 2)


def test_main_raises_systemexit():
    from hankelab.cli import main

    with pytest.raises(SystemExit) as info:
        main(["verify", "nope"])
    assert info.value.code == 2
