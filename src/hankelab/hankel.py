"""Hankel matrices and exact determinants.

The matrix for a sequence a and offset m has entry(i, j) = a(i + j + m).
Determinants are computed fraction-free so every intermediate stays in the
ring the entries come from (integers, `Fraction` or `Polynomial`).
`det_sequence` clears the moments a(m .. m+2n-2) once and reads D_1..D_n,
zeros included, off the leads of Chebyshev's moment rows,
`_chebyshev_rows`, which step over runs of vanishing minors and which the
fit reads too; `det_exact`, whose rows need not be Hankel, eliminates
(`_det`).
`det_cofactor` (cofactor expansion, no division) is the independent
oracle; the tests keep Bareiss elimination and determinants mod p too.
"""

from __future__ import annotations

from fractions import Fraction

from . import ring
from .exactnum import _cleared, _Frozen, _is_scalar, _set, exact_divide
from .sequences import SequenceSpec, parse_spec, terms

__all__ = [
    "HankelMatrix",
    "DetSequence",
    "hankel_matrix",
    "det_exact",
    "det_cofactor",
    "det_sequence",
    "csv_cell",
]


def _one_of(entries):
    """The 1 of the entries' ring, an empty determinant's value: a * 0 + 1
    for the first entry a that is not a number, else Fraction(1)."""
    return next((a * 0 + 1 for a in entries if not _is_scalar(a)), Fraction(1))


def csv_cell(value) -> str:
    """CSV cell for a value; symbolic values are quoted, and so is text with
    a comma, quote or line break (inner quotes doubled, as in RFC 4180)."""
    if isinstance(value, str):
        if any(ch in value for ch in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if _is_scalar(value) or not isinstance(value, (ring.Polynomial, ring.RationalFunction)):
        return str(value)
    return f'"{value}"'


def csv_table(header, rows, *trailer) -> str:
    """CSV text: the header, one line per row, then the trailer rows.

    A None cell is written empty; every other cell goes through csv_cell.
    """
    lines = (header, *rows, *trailer)
    cells = (("" if c is None else csv_cell(c) for c in row) for row in lines)
    return "".join(",".join(row) + "\n" for row in cells)


def json_table(payload) -> str:
    """JSON text of a payload: ints, text and None as JSON has them, and
    every exact value (`Fraction`, `Polynomial`, `RationalFunction`) as
    its `str`.  The package's one call of `json.dumps`."""
    import json  # here, so CSV commands do not import it

    return json.dumps(payload, indent=2, default=str) + "\n"


def values_text(values, fmt: str) -> str:
    """An indexed value list as `n,value` CSV rows or a JSON list of texts."""
    if fmt == "json":
        return json_table(values)
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
    moments = _moments(spec, n, offset)
    rows = tuple(tuple(moments[i:i + n]) for i in range(n))
    return HankelMatrix(spec, offset, n, rows)


def det_exact(matrix, one=None):
    """Exact determinant of one matrix; the empty matrix gives 1.

    Accepts a HankelMatrix or a plain list of rows; `one`, the value of
    the empty matrix, is inferred from a HankelMatrix.  A singular matrix
    gives its ring's zero.  The value is D_n of `_det`, one fraction-free
    elimination.  Numbers are cleared to ints over their lcm L and give
    Fraction(D_n, L**n); ring values (`_cleared`'s scale None) give D_n.
    """
    rows, one = _matrix(matrix, one)
    if not rows:
        return one
    ints, scale = _cleared(*rows)
    det = _det(ints)
    return det if scale is None else Fraction(det, scale**len(rows))


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


def _det(rows):
    """Determinant of a nonempty square matrix by fraction-free elimination,
    each entry dividing exactly by the previous pivot unless it is 1.  A zero
    pivot's row gains the first row below that is nonzero in its column; a
    column zero from the pivot down gives that zero, of the entries' type."""
    work = [list(row) for row in rows]
    prev = 1
    for k, pivot_row in enumerate(work):
        if not pivot_row[k]:
            below = next((row for row in work[k + 1:] if row[k]), None)
            if below is None:
                return pivot_row[k]
            pivot_row[k:] = [a + b for a, b in zip(pivot_row[k:], below[k:])]
        pivot, tail, unit = pivot_row[k], pivot_row[k + 1:], prev == 1
        for row in work[k + 1:]:
            left = -row[k]
            cross = [pivot * a + left * b for a, b in zip(row[k + 1:], tail)]
            # Divisibility by the previous pivot is a theorem of the
            # elimination scheme; a remainder means a bug, not bad input.
            row[k + 1:] = cross if unit else [exact_divide(c, prev) for c in cross]
        prev = pivot
    return prev


def _chebyshev_rows(moments):
    """One row per order n = 1 .. (len(moments)+1)//2, led by D_n: the
    fraction-free rows of Chebyshev's moment algorithm, read as the signed
    subresultants of x^w and a(0) x^(w-1) + ... + a(w-1), w = len(moments)
    (Basu, Pollack and Roy, 2006), leading coefficient first.  A row whose
    first nonzero entry b follows gap-1 zeros gives gap-1 zero minors, then
    m = e * b**gap / s**(gap-1) (as [m]; at gap 1 m = b, and the row is
    yielded), with s the last nonzero minor and e = (-1)**(gap*(gap-1)/2).
    The next row is (q*row - b**(gap+1)*older) / (e * s**gap * c), with c
    leading `older` and q the gap+1 quotient coefficients of the pseudo-
    division of older by row; at gap 1 it is Chebyshev's step (README).
    Divisions are exact, and skipped when the divisor is 1."""
    orders = (len(moments) + 1) // 2
    older, row, s, c = [1] + [0] * len(moments), moments, 1, 1
    while orders:
        gap = 1
        while not row[gap - 1]:  # each zero ahead of b is a zero minor
            yield row
            if gap == orders:
                return
            gap += 1
        row, b, negate = row[gap - 1:], row[gap - 1], gap % 4 in (2, 3)
        power, below = b ** gap, s ** (gap - 1)
        m = power if below == 1 else exact_divide(power, below)
        m = -m if negate else m
        yield row if gap == 1 else [m]
        orders -= gap
        if not orders:
            return
        # Pseudo-division on the first gap+1 entries: q[i] = b**(gap-i) * u[i].
        u = older[:gap + 1]
        for i in range(gap):
            for j in range(i + 1, gap + 1):
                u[j] = b * u[j] - u[i] * row[j - i]
        # Signed coefficients: a ring subtraction would negate each entry.
        step, shift, drop = b * u[-2], u[-1], -(power * b)
        new = [shift * x + step * y + drop * z
               for x, y, z in zip(row[1:], row[2:], older[gap + 1:])]
        for i in range(gap - 1):
            coeff = b ** (gap - i) * u[i]
            new = [v + coeff * x for v, x in zip(new, row[gap + 1 - i:])]
        divisor = s ** gap * c
        divisor = -divisor if negate else divisor
        if divisor != 1:
            new = [exact_divide(v, divisor) for v in new]
        older, row, s, c = row, new, m, b


def det_sequence(spec, n_max: int, offset: int = 0) -> DetSequence:
    """Determinants D_0..D_n_max at one offset: the 1 of a(offset)'s ring,
    then the leads of the `_chebyshev_rows` of a(offset .. offset+2*n_max-2).
    Numbers are cleared to ints over their lcm L and give Fraction(D_n,
    L**n); ring values D_n."""
    spec = parse_spec(spec)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    (ints,), scale = _cleared(_moments(spec, n_max, offset))
    minors = [row[0] for row in _chebyshev_rows(ints)]
    if scale is not None:
        minors = [Fraction(d, scale**n) for n, d in enumerate(minors, 1)]
    one = _one_of(ints[:1] or _moments(spec, 1, offset))  # a(offset)'s ring
    return DetSequence(spec, offset, (one, *minors))


def _moments(spec: SequenceSpec, n: int, offset: int) -> list:
    """The terms a(offset .. offset+2n-2) of a parsed spec, which fill an
    order-n Hankel matrix: entry(i, j) is moments[i + j]."""
    if offset < 0:
        raise ValueError("offset must be >= 0")
    return terms(spec, 2 * n - 1 + offset if n else 0)[offset:]


def _matrix(matrix, one) -> tuple:
    """Rows and ring unit of a HankelMatrix, or of plain rows with `one`
    (default Fraction(1)); the rows must be square and every entry exact:
    an int, `Fraction`, `Polynomial` or `RationalFunction`.  Numbers take
    the ring of the other entries, `RationalFunction` first, so a zero
    taken from a column of numbers is that ring's zero."""
    if isinstance(matrix, HankelMatrix):
        if not matrix.rows:  # order 0: the unit is that of a(offset)'s ring
            one = _one_of(_moments(matrix.spec, 1, matrix.offset))
        matrix = matrix.rows
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    # The scalar test comes first, so rational rows never run `ring`.
    symbolic = [a for row in matrix for a in row if not _is_scalar(a)]
    for a in symbolic:
        if not isinstance(a, (ring.Polynomial, ring.RationalFunction)):
            raise TypeError(f"inexact matrix entry: {a!r}")
    if symbolic:
        rf = any(isinstance(a, ring.RationalFunction) for a in symbolic)
        lift = ring.RationalFunction if rf else ring.Polynomial.constant
        matrix = [[lift(a) if _is_scalar(a) else a for a in row] for row in matrix]
    return matrix, Fraction(1) if one is None else one
