"""Differential property over the command line: the table parser in
`cli` gives what the `argparse` parser it replaced gives (`oracles.py`),
on argument lists drawn from the `cli._COMMANDS` vocabulary: the same
exit code, the same `error:` line, and the same handler and values.

One rule excludes the known differences, each about a '--': `argparse`
drops the first '--' from the values each argument consumes, so a
`--terms=--` parses as an empty list, and keeps a later '--' out of its
"unrecognized arguments" line.  The table parser ends the options at the
first '--' and reads any other '--' as text; `tests/golden_cli.json`
pins what it does.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hankelab import cli
from oracles import ArgumentError, build_parser

_OPTIONS = [option for row in cli._COMMANDS.values() for option in row[2]]
_FLAGS = sorted({option[0] for option in _OPTIONS} | {"-h", "--help"})
_CHOICES = sorted({str(c) for option in _OPTIONS if isinstance(option[1], tuple)
                   for c in option[1]})
_INTS = st.integers(-12, 12).map(str)
_JUNK = ["", "-", "-x", "--bogus", "x", "catalan", "-1.", "-.5", "-2.5", "yaml",
         "-a b", "--bogus=a b", "---"]

_TOKEN = st.one_of(
    st.sampled_from(list(cli._COMMANDS)),
    st.sampled_from(sorted({flag[:i] for flag in _FLAGS for i in range(2, len(flag) + 1)})),
    st.builds("{}={}".format, st.sampled_from(_FLAGS),
              st.one_of(_INTS, st.sampled_from(_CHOICES + _JUNK))),
    _INTS,
    st.sampled_from(_CHOICES + _JUNK),
    st.text("-=h 1.xn", max_size=4),
)
_ARGV = st.one_of(
    st.lists(_TOKEN, max_size=6),
    st.builds(lambda name, rest: [name, *rest],
              st.sampled_from(list(cli._COMMANDS)), st.lists(_TOKEN, max_size=6)),
)


def _double_dash(argv) -> bool:
    return any(arg == "--" or arg.partition("=")[2] == "--" for arg in argv)


def _table(argv) -> tuple:
    try:
        handler, args = cli._parse(list(argv))
    except ValueError as exc:
        return 2, f"error: {exc}", None
    if handler is cli._write_help:
        return 0, None, None
    return 0, None, (handler, vars(args))


def _argparse(argv) -> tuple:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = build_parser().parse_args(list(argv))
    except ArgumentError as exc:
        return 2, f"error: {exc}", None
    except SystemExit as exc:  # -h printed the usage
        return exc.code, None, None
    values = vars(args)
    del values["command"]
    return 0, None, (values.pop("handler"), values)


@settings(max_examples=600)
@given(_ARGV)
@example(["hankel", "--n-max=9", "catalan", "--offset=1", "--n-m", "2", "--f", "json"])
@example(["verify", "thm5.1", "--n", "-3", "--r=2"])
@example(["scan", "--k", "2"])
@example(["seq", "-a b", "--terms", "1"])
@example(["lgv", "-hh"])
@example(["-hx"])
@example(["fit", "x", "--depth", "1", "--format", "yaml"])
def test_the_table_parser_agrees_with_argparse(argv):
    assume(not _double_dash(argv))
    assert _table(argv) == _argparse(argv)
