"""Command line front end.

Subcommands: seq (sequence terms), hankel (determinant sequences),
fit (three-term recurrence coefficients), verify / scan (closed-form
reports), lgv (path-family oracle against the determinant).  Output is
CSV by default or JSON with --format json, written byte-identically for
identical inputs.  Exit status: 0 all comparisons match, 1 a comparison
mismatched, 2 a parse or domain error (one line on stderr).
"""

from __future__ import annotations

import argparse
import sys

# `registry`, `orthopoly` and `lattice` are bound as modules, so importing
# the CLI does not run them; each runs on the first command that reads it.
from . import lattice, orthopoly, registry
from .hankel import (
    csv_table, det_exact, det_sequence, hankel_matrix, json_table, values_text,
)
from .sequences import terms

__all__ = ["build_parser", "run", "main"]


def __getattr__(name):
    # perfbench/tracer.py wraps `cli.fit_spec` until tracing moves into the
    # package (ROADMAP open item 5).
    if name == "fit_spec":
        return orthopoly.fit_spec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so run() can emit one stderr line."""

    def error(self, message):
        raise _ArgumentError(message)


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
    if args.format == "json":
        row = (args.n, str(family), str(det), status)
        sys.stdout.write(json_table(dict(zip(columns, row))))
    else:
        sys.stdout.write(csv_table(columns, [(args.n, family, det, status)]))
    return 0 if status == "match" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hankelab",
                     description="exact Hankel determinant workbench")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def fmt_option(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")

    p = sub.add_parser("seq", help="print the first terms of a sequence spec")
    p.add_argument("spec", help="sequence spec, e.g. 'catalan|double-signed'")
    p.add_argument("--terms", type=int, required=True, help="how many terms")
    fmt_option(p)
    p.set_defaults(handler=_cmd_seq)

    p = sub.add_parser("hankel", help="print a Hankel determinant sequence")
    p.add_argument("spec")
    p.add_argument("--n-max", type=int, required=True,
                   help="largest matrix order to evaluate")
    p.add_argument("--offset", type=int, choices=(0, 1), default=0,
                   help="index offset of the matrix entries (default 0)")
    fmt_option(p)
    p.set_defaults(handler=_cmd_hankel)

    p = sub.add_parser("fit", help="fit three-term recurrence coefficients")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, required=True,
                   help="number of s coefficients to recover")
    fmt_option(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("verify", help="check a formula id against determinants")
    p.add_argument("id", help="formula id, e.g. thm7.3; see the registry")
    p.add_argument("--n-max", type=int, default=None,
                   help="override the documented range")
    p.add_argument("--r", type=int, default=None,
                   help="pin the r parameter of parameterized ids")
    fmt_option(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("scan", help="walk a conjectured pattern range")
    p.add_argument("id")
    p.add_argument("--k-max", type=int, default=None,
                   help="largest pattern parameter k")
    p.add_argument("--n-max", type=int, default=None,
                   help="override the documented range")
    fmt_option(p)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("lgv", help="compare the path-family oracle with the determinant")
    p.add_argument("--n", type=int, required=True, help="matrix order")
    fmt_option(p)
    p.set_defaults(handler=_cmd_lgv)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(argv))
