"""Three-term recurrences: fitting them from moments and using them.

A moment sequence a(n) with nonvanishing leading principal Hankel minors
determines coefficients s(n), t(n) with

    p(n, x) = (x - s(n-1)) p(n-1, x) - t(n-2) p(n-2, x)

for the monic orthogonal polynomials of the functional F(x^n) = a(n).
Everything downstream of that pair lives here: the moment triangle, the
determinant product formula, the shifted-determinant relation, aeration
collapse, and the moment-pencil determinant identity.
"""

from __future__ import annotations

from fractions import Fraction

from . import ring
from .exactnum import _cleared, _Frozen, _set
from .hankel import _chebyshev_rows, _one_of, csv_table, det_exact, json_table
from .sequences import _seeded, terms

__all__ = [
    "ZeroHankelMinorError",
    "JacobiData",
    "Triangle",
    "fit_recurrence",
    "fit_spec",
    "triangle",
    "moments_from_recurrence",
    "aerated_triangle",
    "aeration_collapse",
    "poly_from_recurrence",
    "ortho_value",
    "det_product_formula",
    "shifted_det",
    "moment_functional",
    "PencilCheck",
    "pencil_identity_check",
]


class ZeroHankelMinorError(ArithmeticError):
    """A leading principal Hankel minor vanishes, so no fit exists there."""

    def __init__(self, order: int):
        super().__init__(f"Hankel minor of order {order} vanishes")
        self.order = order


class JacobiData(_Frozen):
    """Recurrence coefficients s(0..depth-1) and t(0..depth-2) or t(0..depth-1)."""

    __slots__ = ("s", "t")

    def __init__(self, s: tuple, t: tuple):
        if len(t) < len(s) - 1:
            raise ValueError("t must reach at least depth - 1")
        _set(self, "s", s)
        _set(self, "t", t)

    @property
    def depth(self) -> int:
        return len(self.s)

    def one(self):
        for value in self.t + self.s:
            return value * 0 + 1
        return Fraction(1)

    def json_text(self) -> str:
        return json_table({"s": self.s, "t": self.t})

    def csv_text(self) -> str:
        rows = ((k, s, self.t[k] if k < len(self.t) else None)
                for k, s in enumerate(self.s))
        return csv_table(("k", "s", "t"), rows)


class Triangle(_Frozen):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        _set(self, "rows", rows)

    def row(self, n: int) -> tuple:
        return self.rows[n]

    def entry(self, n: int, k: int):
        if 0 <= n < len(self.rows) and 0 <= k < len(self.rows[n]):
            return self.rows[n][k]
        return Fraction(0)

    def column0(self) -> list:
        return [row[0] for row in self.rows]


def fit_recurrence(moments, depth: int) -> JacobiData:
    """Unique s(0..depth-1), t(0..depth-2) reproducing the moments.

    Needs 2*depth moments with a(0) = 1.  Raises ZeroHankelMinorError
    naming the order of the first vanishing minor when no fit exists.

    `_cleared` decides: numbers are cleared to integers over one common
    denominator and fitted on the integer rows of `hankel._chebyshev_rows`
    (`_fit_integers`), with `Fraction`s built only for s and t; ring
    values (scale None) are fitted over the rational-function field.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if len(moments) < 2 * depth or not moments:
        raise ValueError(f"need {max(2 * depth, 1)} moments, got {len(moments)}")
    if moments[0] != 1:
        raise ValueError("fitting needs a leading moment equal to 1")
    (head,), scale = _cleared(moments[: 2 * depth])
    s, t = _fit_integers(head) if scale is not None else _fit_field(head)
    return JacobiData(tuple(s), tuple(t))


def _fit_field(moments: list):
    """Chebyshev's moment algorithm over Q(t), to depth len(moments) // 2.

    sigma[k][l] is the functional applied to p(k, x) * x^l, for l = k ..
    width-1-k at its natural index.  Row k is row k-1 shifted plus -s(k-1)
    times row k-1 and -t(k-2) times row k-2; s(k) = r(k) - r(k-1), where
    r(k) = sigma[k][k+1] / sigma[k][k] is carried, so it is divided once.
    s and t are `RationalFunction`s, and each ratio is one division of
    them.  The rows multiply by the numerator of -s(k-1) or -t(k-2) when
    its denominator is 1, so polynomial rows stay polynomials; one that is
    not makes its row `RationalFunction`s.
    """
    width = len(moments)
    older, prev = None, moments
    r = _quotient(moments[1], moments[0])
    s, t = [r], []
    for k in range(1, width // 2):
        shift, drop = _factor(-s[k - 1]), _factor(-t[k - 2]) if k >= 2 else None
        row = [None] * (width - k)
        for l in range(k, width - k):
            value = prev[l + 1] + shift * prev[l]
            if k >= 2:
                value = value + drop * older[l]
            row[l] = value
        if not row[k]:
            raise ZeroHankelMinorError(k + 1)
        t.append(_quotient(row[k], prev[k - 1]))
        ratio = _quotient(row[k + 1], row[k])
        s.append(ratio - r)
        older, prev, r = prev, row, ratio
    return s, t


def _quotient(a, b) -> ring.RationalFunction:
    """a / b in Q(t), for row entries that may be polynomials."""
    rf = ring.RationalFunction
    return (a if isinstance(a, rf) else rf(a)) / b


def _factor(value: ring.RationalFunction):
    """A row factor: the numerator of a value with denominator 1."""
    return value.num if value.den.degree == 0 else value


def _fit_integers(moments: list):
    """s(k) = r(k) - r(k-1) and t(k-1) = D_(k+1) D_(k-1) / D_k**2 off the
    rows tau[k][k:] of `hankel._chebyshev_rows`, led by D_(k+1) = tau[k][k],
    r(k) = tau[k][k+1] / D_(k+1) and r(-1) = 0; neither changes with scale."""
    s, t = [], []
    c, a, r = 1, 1, 0  # D_(k-1), D_k and r(k-1)
    for k, row in enumerate(_chebyshev_rows(moments)):
        pivot = row[0]
        if not pivot:
            raise ZeroHankelMinorError(k + 1)
        if k:
            t.append(Fraction(pivot * c, a * a))
        ratio = Fraction(row[1], pivot)
        s.append(ratio - r)
        c, a, r = a, pivot, ratio
    return s, t


def fit_spec(spec, depth: int) -> JacobiData:
    """Fit straight from a sequence spec (text or `SequenceSpec`)."""
    # At depth 0 the fit still reads a(0), so ask for at least one term.
    return fit_recurrence(terms(spec, max(2 * depth, 1)), depth)


def _moment_rows(rows: int, s, t, horizon: int | None = None):
    """Rows 0..rows-1 of the moment triangle; row n holds j = 0..n.

    a(0, j) = [j = 0] and
    a(n, j) = a(n-1, j-1) + s(j) a(n-1, j) + t(j) a(n-1, j+1).

    s None drops the diagonal step (aerated triangles).  With a horizon,
    row n stops at column horizon-1-n: later columns cannot reach column 0
    by row horizon-1.
    """
    above = [Fraction(1)]
    for n in range(rows):
        if n:
            top = n if horizon is None else min(n, horizon - 1 - n)
            row = []
            for j in range(top + 1):
                value = above[j - 1] if j else Fraction(0)
                if s is not None and j < len(above):
                    value = value + s[j] * above[j]
                if j + 1 < len(above):
                    value = value + t[j] * above[j + 1]
                row.append(value)
            above = row
        yield above


def triangle(jd: JacobiData, rows: int) -> Triangle:
    """Forward moment triangle a(n, j); column 0 rebuilds the moments.

    a(0, j) = [j = 0] and
    a(n, j) = a(n-1, j-1) + s(j) a(n-1, j) + t(j) a(n-1, j+1).
    """
    if rows > 0 and len(jd.s) < rows - 1:
        raise ValueError("recurrence depth does not cover the requested rows")
    return Triangle(tuple(map(tuple, _moment_rows(rows, jd.s, jd.t))))


def moments_from_recurrence(jd: JacobiData, count: int) -> list:
    """First `count` moments a(n) rebuilt from the coefficients.

    Twice the depth is reachable because entries that cannot influence
    column 0 within the horizon are never computed.
    """
    if count > 2 * jd.depth and count > 1:
        raise ValueError("count exceeds what the fitted depth determines")
    return [row[0] for row in _moment_rows(count, jd.s, jd.t, horizon=count)]


def aerated_triangle(weights, rows: int) -> Triangle:
    """Triangle A(n, k) = A(n-1, k-1) + T(k) A(n-1, k+1), A(0, k) = [k=0].

    The column-0 sequence is the aerated moment sequence whose downstep
    weights are T; entries vanish unless n and k have equal parity.
    """
    if rows > 2 and len(weights) < rows - 2:
        raise ValueError("weights do not cover the requested rows")
    return Triangle(tuple(map(tuple, _moment_rows(rows, None, weights))))


def aeration_collapse(weights) -> JacobiData:
    """Coefficients of the de-aerated sequence from aeration weights T.

    s(0) = T(0), s(n) = T(2n-1) + T(2n), t(n) = T(2n) T(2n+1).
    """
    weights = list(weights)
    pairs = (len(weights) - 1) // 2
    s = weights[:1] + [weights[2 * n - 1] + weights[2 * n] for n in range(1, pairs + 1)]
    t = [weights[2 * n] * weights[2 * n + 1] for n in range(pairs)]
    return JacobiData(tuple(s), tuple(t))


def poly_from_recurrence(jd: JacobiData, n: int, var: str = "x") -> ring.Polynomial:
    """Monic degree-n polynomial p(n, x) from the recurrence."""
    return ortho_value(jd, n, ring.Polynomial.variable_poly(var))


def ortho_value(jd: JacobiData, n: int, point):
    """p(n, x) evaluated at a point, straight through the recurrence."""
    if n > jd.depth:
        raise ValueError("recurrence depth does not cover n")
    one = point * 0 + 1
    if n == 0:
        return one
    steps = ((point - jd.s[k - 1], -jd.t[k - 2]) for k in range(2, n + 1))
    return _seeded(one, point - jd.s[0], n + 1, steps)[n]


def det_product_formula(jd: JacobiData, n: int):
    """Hankel determinant of order n as the product of t-powers.

    det(a(i+j)) over i, j < n equals the product of t(j)^(n-1-j) for
    j = 0 .. n-2; orders 0 and 1 give 1, the empty product.
    """
    if len(jd.t) < n - 1:
        raise ValueError("recurrence depth does not cover n")
    value = jd.one()
    for j in range(n - 1):
        value = value * jd.t[j] ** (n - 1 - j)
    return value


def shifted_det(jd: JacobiData, n: int, det0):
    """Offset-1 determinant from the offset-0 one: (-1)^n p(n, 0) det0."""
    at_zero = ortho_value(jd, n, Fraction(0))
    value = at_zero * det0
    return value if n % 2 == 0 else -value


def moment_functional(moments, poly: ring.Polynomial):
    """Apply the functional x^e -> moments[e] to a polynomial termwise."""
    if poly.degree >= len(moments):
        raise ValueError("not enough moments for this degree")
    parts = (poly.coefficient(e) * moments[e] for e in range(poly.degree + 1))
    return sum(parts, Fraction(0))


class PencilCheck(_Frozen):
    """Both sides of det(a(i+j) x0 - a(i+j+1)) = det(a(i+j)) p(n, x0)."""

    __slots__ = ("order", "point", "lhs", "rhs")

    def __init__(self, order: int, point, lhs, rhs):
        _set(self, "order", order)
        _set(self, "point", point)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

    @property
    def matches(self) -> bool:
        return self.lhs == self.rhs


def pencil_identity_check(moments, n: int, x0) -> PencilCheck:
    """Check the moment-pencil determinant identity at one point.

    Needs max(2n, 1) moments, since the fit to depth n supplies p(n, x)
    and reads a(0) even at n = 0.
    """
    need = max(2 * n, 1)
    if len(moments) < need:
        raise ValueError(f"need {need} moments, got {len(moments)}")
    one = _one_of(moments[:1])
    pencil = [
        [moments[i + j] * x0 - moments[i + j + 1] for j in range(n)]
        for i in range(n)
    ]
    lhs = det_exact(pencil, one)
    plain = [[moments[i + j] for j in range(n)] for i in range(n)]
    det0 = det_exact(plain, one)
    jd = fit_recurrence(moments, n)
    rhs = det0 * ortho_value(jd, n, x0)
    return PencilCheck(n, x0, lhs, rhs)
