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

from fractions import Fraction

from .exactnum import (
    Polynomial, RationalFunction, _cleared, _Frozen, _is_scalar, _set, exact_divide,
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
    import json  # here, so CSV commands do not import it

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
    spec = parse_spec(spec)
    if n < 0:
        raise ValueError("order must be >= 0")
    rows = tuple(map(tuple, _hankel_rows(spec, n, offset)))
    return HankelMatrix(spec, offset, n, rows)


def det_exact(matrix, one=None):
    """Exact determinant of one matrix; the empty matrix gives 1.

    Accepts a HankelMatrix or a plain list of rows.  `one` only names the
    value of the empty matrix; it is inferred from a HankelMatrix.  A
    singular matrix gives the zero of its entries' ring.
    The value is the last leading minor of the same elimination that
    `det_sequence` runs: its look-ahead adds a row i < n to a row above,
    which keeps every minor of order above i, so D_n is the determinant.
    """
    rows, one = _matrix(matrix, one)
    return _minors(rows)[-1] if rows else one


def det_cofactor(rows, one=None):
    """Determinant by first-row cofactor expansion; test oracle only."""
    rows, one = _matrix(rows, one)
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    total = rows[0][0] * 0
    for j in range(n):
        minor = [
            [rows[i][c] for c in range(n) if c != j] for i in range(1, n)
        ]
        term = rows[0][j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _leading_minors(rows) -> list:
    """Leading principal minors D_1..D_n of a square matrix in one pass.

    Fraction-free elimination without row exchanges: by Sylvester's
    identity the pivot of step k is D_{k+1}.  A zero pivot whose column
    has its first nonzero entry below in row i means D_{k+1}..D_i vanish
    (the trailing block starts with a zero column).  Adding row i to row k
    keeps every minor of order above i and gives a nonzero pivot, so the
    pass goes on; orders up to the largest such i are reported as 0.  A
    column that is zero from row k down makes every remaining minor 0.
    Each zero is taken from the matrix, so it has the type of the entries
    it came from (see `_minors` for rows that mix numbers and polynomials).
    """
    work = [list(row) for row in rows]
    n = len(work)
    out = []
    prev = 1
    zero_until = 0
    for k in range(n):
        pivot_row = work[k]
        if not pivot_row[k]:
            below = next((i for i in range(k + 1, n) if work[i][k]), None)
            if below is None:
                return out + [pivot_row[k]] * (n - k)
            zero_until = max(zero_until, below)
            pivot_row[k:] = [a + b for a, b in zip(pivot_row[k:], work[below][k:])]
        pivot = pivot_row[k]
        out.append(pivot if k >= zero_until else pivot * 0)
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


def _minors(rows) -> list:
    """Leading principal minors D_1..D_n of a square matrix.

    When every entry is an int or Fraction, they are scaled by the lcm L of
    their denominators, the kernel runs on Python ints and D_n is returned
    as Fraction(minor, L**n).  Other entries go through as they are; when
    some entry is a `Polynomial`, a zero minor that the kernel took from a
    column of numbers is given as `Polynomial.zero()`.
    """
    entries = [a for row in rows for a in row]
    if not all(isinstance(a, (int, Fraction)) for a in entries):
        minors = _leading_minors(rows)
        if any(isinstance(a, Polynomial) for a in entries):
            return [Polynomial.zero() if _is_scalar(d) and not d else d for d in minors]
        return minors
    ints, scale = _cleared(*rows)
    return [Fraction(d, scale**n) for n, d in enumerate(_leading_minors(ints), 1)]


def det_sequence(spec, n_max: int, offset: int = 0) -> DetSequence:
    """Determinants of all leading orders 0..n_max at one offset.

    All orders come from one elimination of the order-n_max matrix;
    rational entries are eliminated as Python ints (see `_minors`).
    """
    spec = parse_spec(spec)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    minors = _minors(_hankel_rows(spec, n_max, offset))
    return DetSequence(spec, offset, (_ring_one(spec), *minors))


def _hankel_rows(spec: SequenceSpec, n: int, offset: int) -> list:
    """Rows a(i + j + offset), i, j < n, of a parsed spec's terms."""
    if offset < 0:
        raise ValueError("offset must be >= 0")
    values = terms(spec, 2 * n - 1 + offset if n else 0)
    return [[values[i + j + offset] for j in range(n)] for i in range(n)]


def _matrix(matrix, one) -> tuple:
    """Rows and ring unit of a HankelMatrix, or of plain rows with `one`
    (default Fraction(1)); the rows must be square."""
    if isinstance(matrix, HankelMatrix):
        matrix, one = matrix.rows, _ring_one(matrix.spec)
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    return matrix, Fraction(1) if one is None else one
