"""Hankel matrices and exact determinants.

The matrix for a sequence a and offset m has entry(i, j) = a(i + j + m).
Determinants are computed fraction-free so every intermediate stays in the
ring the entries come from (integers, `Fraction` or `Polynomial`).
One elimination kernel, `_leading_minors`, gives every determinant:
`det_sequence` reads all leading minors off one pass and `det_exact` the
last one.  `det_cofactor` (cofactor expansion, no division) is the
independent oracle; the tests keep a Bareiss elimination with row
exchanges as a second one.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactnum import (
    Polynomial, RationalFunction, _cleared, _Frozen, _set, exact_divide,
)
from .sequences import POLYNOMIAL, SequenceSpec, parse_spec, terms

__all__ = [
    "HankelMatrix",
    "DetSequence",
    "hankel_matrix",
    "det_exact",
    "det_cofactor",
    "det_sequence",
    "csv_cell",
]


def _as_spec(spec) -> SequenceSpec:
    return parse_spec(spec) if isinstance(spec, str) else spec


def _ring_one(spec: SequenceSpec):
    return Polynomial.one() if spec.kind == POLYNOMIAL else Fraction(1)


def csv_cell(value) -> str:
    """CSV cell for a value; symbolic values are quoted, and so is text with
    a comma, quote or line break (inner quotes doubled, as in RFC 4180)."""
    if isinstance(value, (Polynomial, RationalFunction)):
        return f'"{value}"'
    if isinstance(value, str) and any(ch in value for ch in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def csv_table(header, rows, *trailer) -> str:
    """CSV text: the header, one line per row, then the trailer rows.

    A None cell is written empty; every other cell goes through csv_cell.
    """
    lines = (header, *rows, *trailer)
    cells = (("" if c is None else csv_cell(c) for c in row) for row in lines)
    return "".join(",".join(row) + "\n" for row in cells)


def json_table(payload) -> str:
    """JSON text of a payload whose exact values are already strings."""
    return json.dumps(payload, indent=2) + "\n"


def values_text(values, fmt: str) -> str:
    """An indexed value list as `n,value` CSV rows or a JSON list of texts."""
    if fmt == "json":
        return json_table([str(v) for v in values])
    return csv_table(("n", "value"), enumerate(values))


class HankelMatrix(_Frozen):
    """The order-n Hankel matrix of a spec at an offset, as a tuple of rows."""

    __slots__ = ("spec", "offset", "order", "rows")

    def __init__(self, spec: SequenceSpec, offset: int, order: int, rows: tuple):
        _set(self, "spec", spec)
        _set(self, "offset", offset)
        _set(self, "order", order)
        _set(self, "rows", rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]


class DetSequence(_Frozen):
    """Hankel determinants of orders 0..n_max of a spec at one offset."""

    __slots__ = ("spec", "offset", "values")

    def __init__(self, spec: SequenceSpec, offset: int, values: tuple):
        _set(self, "spec", spec)
        _set(self, "offset", offset)
        _set(self, "values", values)

    def __getitem__(self, n: int):
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)

    def csv_text(self) -> str:
        return values_text(self.values, "csv")

    def json_text(self) -> str:
        return values_text(self.values, "json")


def hankel_matrix(spec, n: int, offset: int = 0) -> HankelMatrix:
    """n-by-n matrix with entry(i, j) the (i+j+offset)-th sequence term."""
    spec = _as_spec(spec)
    if n < 0:
        raise ValueError("order must be >= 0")
    if offset < 0:
        raise ValueError("offset must be >= 0")
    values = terms(spec, 2 * n - 1 + offset if n else 0)
    rows = tuple(map(tuple, _square(values, n, offset)))
    return HankelMatrix(spec, offset, n, rows)


def det_exact(matrix, one=None):
    """Exact determinant of one matrix; the empty matrix gives 1.

    Accepts a HankelMatrix or a plain list of rows.  `one` names the ring
    unit used for the empty case; it is inferred from a HankelMatrix.
    The value is the last leading minor of the same elimination that
    `det_sequence` runs: its look-ahead adds a row i < n to a row above,
    which keeps every minor of order above i, so D_n is the determinant.
    """
    if isinstance(matrix, HankelMatrix):
        rows = matrix.rows
        one = _ring_one(matrix.spec)
    else:
        rows = matrix
        if one is None:
            one = Fraction(1)
    return _minors(rows, one)[-1] if rows else one


def det_cofactor(rows, one=None):
    """Determinant by first-row cofactor expansion; test oracle only."""
    if isinstance(rows, HankelMatrix):
        one = _ring_one(rows.spec)
        rows = rows.rows
    if one is None:
        one = Fraction(1)
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    total = one * 0
    for j in range(n):
        minor = [
            [rows[i][c] for c in range(n) if c != j] for i in range(1, n)
        ]
        term = rows[0][j] * det_cofactor(minor, one)
        total = total + term if j % 2 == 0 else total - term
    return total


def _leading_minors(rows, one) -> list:
    """Leading principal minors D_1..D_n of a square matrix in one pass.

    Fraction-free elimination without row exchanges: by Sylvester's
    identity the pivot of step k is D_{k+1}.  A zero pivot whose column
    has its first nonzero entry below in row i means D_{k+1}..D_i vanish
    (the trailing block starts with a zero column).  Adding row i to row k
    keeps every minor of order above i and gives a nonzero pivot, so the
    pass goes on; orders up to the largest such i are reported as 0.  A
    column that is zero from row k down makes every remaining minor 0.
    """
    work = [list(row) for row in rows]
    n = len(work)
    zero = one * 0
    out = []
    prev = 1
    zero_until = 0
    for k in range(n):
        pivot_row = work[k]
        if not pivot_row[k]:
            below = next((i for i in range(k + 1, n) if work[i][k]), None)
            if below is None:
                return out + [zero] * (n - k)
            zero_until = max(zero_until, below)
            pivot_row[k:] = [a + b for a, b in zip(pivot_row[k:], work[below][k:])]
        pivot = pivot_row[k]
        out.append(pivot if k >= zero_until else zero)
        tail = pivot_row[k + 1:]
        for row in work[k + 1:]:
            left = row[k]
            # Divisibility by the previous pivot is a theorem of the
            # elimination scheme; a remainder means a bug, not bad input.
            row[k + 1:] = [
                exact_divide(pivot * a - left * b, prev)
                for a, b in zip(row[k + 1:], tail)
            ]
        prev = pivot
    return out


def _minors(rows, one) -> list:
    """Leading principal minors D_1..D_n of a square matrix.

    When every entry is an int or Fraction, they are scaled by the lcm L of
    their denominators, the kernel runs on Python ints and D_n is returned
    as Fraction(minor, L**n).  Other entries go through as they are.
    """
    if not all(isinstance(a, (int, Fraction)) for row in rows for a in row):
        return _leading_minors(rows, one)
    ints, scale = _cleared(*rows)
    return [Fraction(d, scale**n) for n, d in enumerate(_leading_minors(ints, 1), 1)]


def det_sequence(spec, n_max: int, offset: int = 0) -> DetSequence:
    """Determinants of all leading orders 0..n_max at one offset.

    All orders come from one elimination of the order-n_max matrix;
    rational entries are eliminated as Python ints (see `_minors`).
    """
    spec = _as_spec(spec)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = terms(spec, 2 * n_max - 1 + offset if n_max else 0)
    one = _ring_one(spec)
    minors = _minors(_square(values, n_max, offset), one)
    return DetSequence(spec, offset, (one, *minors))


def _square(values, n: int, offset: int) -> list:
    return [[values[i + j + offset] for j in range(n)] for i in range(n)]
