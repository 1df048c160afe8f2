"""Command line front end.

Subcommands: seq (sequence terms), hankel (determinant sequences),
fit (three-term recurrence coefficients), verify / scan (closed-form
reports), lgv (path-family oracle against the determinant).  Output is
CSV by default or JSON with --format json, written byte-identically for
identical inputs.  Exit status: 0 all comparisons match, 1 a comparison
mismatched, 2 a parse or domain error (one line on stderr).

The grammar is one table, `_COMMANDS`: a row per subcommand.  An option
takes its value as the next argument or after '=' (`--n-max=3`), may be
shortened to a unique prefix (`--n-m 3`), and keeps its last value when
repeated; a value may be a negative number.  `-h` or `--help` prints
the usage the table gives.  Usage errors are worded as `argparse` words
them, which this parser replaced to keep it off every command's start-up.
"""

from __future__ import annotations

import sys
import types

# `registry`, `orthopoly` and `lattice` are bound as modules, so importing
# the CLI does not run them; each runs on the first command that reads it.
from . import lattice, orthopoly, registry
from .hankel import (
    csv_table, det_exact, det_sequence, hankel_matrix, json_table, values_text,
)
from .sequences import terms

__all__ = ["run", "main"]


def __getattr__(name):
    # perfbench/tracer.py wraps `cli.fit_spec` until tracing moves into the
    # package (ROADMAP open item 5).
    if name == "fit_spec":
        return orthopoly.fit_spec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _cmd_seq(args) -> int:
    sys.stdout.write(values_text(terms(args.spec, args.terms), args.format))
    return 0


def _write(table, fmt: str) -> None:
    sys.stdout.write(table.json_text() if fmt == "json" else table.csv_text())


def _cmd_hankel(args) -> int:
    _write(det_sequence(args.spec, args.n_max, args.offset), args.format)
    return 0


def _cmd_fit(args) -> int:
    _write(orthopoly.fit_spec(args.spec, args.depth), args.format)
    return 0


def _write_report(report, fmt: str) -> int:
    _write(report, fmt)
    return 0 if report.verdict == "match" else 1


def _cmd_verify(args) -> int:
    report = registry.verify(args.id, n_max=args.n_max, r=args.r)
    return _write_report(report, args.format)


def _cmd_scan(args) -> int:
    report = registry.scan(args.id, k_max=args.k_max, n_max=args.n_max)
    return _write_report(report, args.format)


def _cmd_lgv(args) -> int:
    family = lattice.lgv_bruteforce(args.n)
    det = det_exact(hankel_matrix("convpoly:m=3", args.n))
    status = "match" if family == det else "mismatch"
    columns = ("n", "lgv", "det", "status")
    row = (args.n, family, det, status)
    if args.format == "json":
        sys.stdout.write(json_table(dict(zip(columns, row))))
    else:
        sys.stdout.write(csv_table(columns, [row]))
    return 0 if status == "match" else 1


# An option: (flag, int or a tuple of choices, default, required, help).
_FORMAT = ("--format", ("csv", "json"), "csv", False, "output format (default csv)")

# A subcommand: (help, positional argument (name, help) or None, options,
# handler).  The handler gets a namespace with one attribute per argument.
_COMMANDS = {
    "seq": ("print the first terms of a sequence spec",
            ("spec", "sequence spec, e.g. 'catalan|double-signed'"),
            (("--terms", int, None, True, "how many terms"), _FORMAT),
            _cmd_seq),
    "hankel": ("print a Hankel determinant sequence",
               ("spec", "sequence spec"),
               (("--n-max", int, None, True, "largest matrix order to evaluate"),
                ("--offset", (0, 1), 0, False,
                 "index offset of the matrix entries (default 0)"),
                _FORMAT),
               _cmd_hankel),
    "fit": ("fit three-term recurrence coefficients",
            ("spec", "sequence spec"),
            (("--depth", int, None, True, "number of s coefficients to recover"),
             _FORMAT),
            _cmd_fit),
    "verify": ("check a formula id against determinants",
               ("id", "formula id, e.g. thm7.3; see the registry"),
               (("--n-max", int, None, False, "override the documented range"),
                ("--r", int, None, False, "pin the r parameter of parameterized ids"),
                _FORMAT),
               _cmd_verify),
    "scan": ("walk a conjectured pattern range",
             ("id", "conjecture id, e.g. conj7.2; see the registry"),
             (("--k-max", int, None, False, "largest pattern parameter k"),
              ("--n-max", int, None, False, "override the documented range"),
              _FORMAT),
             _cmd_scan),
    "lgv": ("compare the path-family oracle with the determinant",
            None,
            (("--n", int, None, True, "matrix order"), _FORMAT),
            _cmd_lgv),
}

_HELP = ("-h", "--help")


def _lookup(arg: str, flags) -> tuple:
    """(flag, value after '=' or None) for an argument naming one of
    `flags`: in full, by a unique prefix of a long flag, or as a short flag
    with its value attached.  (None, None) for another option; () for a
    value: an argument that does not start with '-', a lone '-' or '--',
    a negative number, or one with a space that names no flag."""
    if not arg.startswith("-") or arg in ("-", "--"):
        return ()
    if arg in flags:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in flags:
        return name, value
    if arg.startswith("--"):
        found = [flag for flag in flags if flag.startswith(name)]
        if len(found) > 1:
            raise ValueError(f"ambiguous option: {arg} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif arg[:2] in flags:
        return arg[:2], arg[2:]
    if " " in arg:
        return ()
    whole, dot, fraction = arg[1:].partition(".")
    if (fraction if dot else whole).isdecimal() and (whole.isdecimal() or not whole):
        return ()
    return None, None


def _value(option, text: str):
    flag, kind, *_ = option
    convert = type(kind[0]) if isinstance(kind, tuple) else kind
    try:
        value = convert(text)
    except ValueError:
        raise ValueError(
            f"argument {flag}: invalid {convert.__name__} value: {text!r}") from None
    if isinstance(kind, tuple) and value not in kind:
        raise ValueError(f"argument {flag}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, kind))})")
    return value


def _parse(argv: list) -> tuple:
    """The handler of a command line and its argument: the namespace of the
    command's arguments, or the usage text that `-h` asks for."""
    extras = []
    for at, arg in enumerate(argv):
        found = _lookup(arg, _HELP)
        if not found:
            break
        if found[0]:
            return _help(None, *found)
        extras.append(arg)
    else:
        raise ValueError("the following arguments are required: command")
    if arg not in _COMMANDS:
        raise ValueError(f"argument command: invalid choice: {arg!r} "
                         f"(choose from {', '.join(map(repr, _COMMANDS))})")
    command, (_, positional, options, handler) = arg, _COMMANDS[arg]
    flags = dict.fromkeys(_HELP)
    flags.update((option[0], option) for option in options)
    # The first '--' is dropped, and no option takes it or what follows as
    # its value: every argument after it is a value.
    rest = argv[at + 1:]
    cut = rest.index("--") if "--" in rest else len(rest)
    kinds = [_lookup(arg, flags) for arg in rest[:cut]] + [True] + [()] * (len(rest) - cut)
    given = {}
    pairs = zip(rest, kinds)
    for arg, found in pairs:
        if found is True:
            continue
        if not found:
            if positional and positional[0] not in given:
                given[positional[0]] = arg
            else:
                extras.append(arg)
            continue
        flag, text = found
        if flag is None:
            extras.append(arg)
            continue
        if flags[flag] is None:
            return _help(command, flag, text)
        if text is None:
            text, option = next(pairs, (None, True))
            if option:
                raise ValueError(f"argument {flag}: expected one argument")
        given[flag] = _value(flags[flag], text)
    required = [positional[0]] if positional else []
    required += [flag for flag, _, _, needed, _ in options if needed]
    missing = [name for name in required if name not in given]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    values = {flag[2:].replace("-", "_"): given.get(flag, default)
              for flag, _, default, _, _ in options}
    if positional:
        values[positional[0]] = given[positional[0]]
    return handler, types.SimpleNamespace(**values)


def _help(command: str | None, flag: str, value: str | None) -> tuple:
    """The handler that prints the usage of a command, or of the program
    for None, and that text.  `-h` takes no value, but may repeat: `-hh`."""
    if flag == "-h" and value:
        value = value.lstrip("h") or None
    if value is not None:
        raise ValueError(f"argument -h/--help: ignored explicit argument {value!r}")
    if command is None:
        rows = [(name, row[0]) for name, row in _COMMANDS.items()]
        text = ("usage: hankelab COMMAND [ARGUMENT] [OPTION ...]\n\n"
                "exact Hankel determinant workbench\n\ncommands:\n")
        tail = ("\nRun 'hankelab COMMAND --help' for the options of a command.  An\n"
                "option takes its value next or after '=', and a unique prefix\n"
                "of its name will do: --n-max=3, --n-m 3.\n")
    else:
        about, positional, options, _ = _COMMANDS[command]
        rows = [positional] if positional else []
        words = [positional[0]] if positional else []
        for flag, kind, _, required, about_option in options:
            shown = (f"{{{','.join(map(str, kind))}}}" if isinstance(kind, tuple)
                     else flag[2:].replace("-", "_").upper())
            rows.append((f"{flag} {shown}", about_option))
            words.append(f"{flag} {shown}" if required else f"[{flag} {shown}]")
        text = f"usage: hankelab {command} {' '.join(words)}\n\n{about}\n\narguments:\n"
        tail = ""
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    text += "".join(f"  {left.ljust(width)}{right}\n" for left, right in rows)
    return _write_help, text + tail


def _write_help(text: str) -> int:
    sys.stdout.write(text)
    return 0


def run(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(argv))
