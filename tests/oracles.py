"""Test-side references.

The determinant oracle is Bareiss elimination with row exchanges, one
matrix at a time.  It shares no code with `hankel._det` (which adds a
row below to a zero pivot's row instead of exchanging them) or with
`hankel._chebyshev_rows` (which reads every leading minor, zeros
included, off the fraction-free rows of Chebyshev's moment algorithm),
so they can be checked against each other.  `modular_dets` reaches
larger orders: Gaussian elimination with row exchanges over F_p, with
polynomial entries evaluated at a point.  A wrong D_n agrees with it mod
p at a random point with probability at most deg(D_n)/p
(Schwartz-Zippel).

The J-fraction references are the paper's explicit recurrence
coefficients and the orthogonal-polynomial values they give at 0
(`h_value`, `aerated_u_p0`); the tests hold the fit to them.

The series references build the `u` and `convpoly` families by power
series arithmetic, one prefix at a time, as the library did before its
closed forms; they share no code with `sequences._u_power`.

The parser reference is the `argparse` parser that `cli._COMMANDS`
replaced, kept here so `argparse` stays out of the package."""

from __future__ import annotations

import argparse
from fractions import Fraction

from hankelab.cli import _cmd_fit, _cmd_hankel, _cmd_lgv, _cmd_scan, _cmd_seq, _cmd_verify
from hankelab.exactnum import Polynomial, PowerSeries, RationalFunction, exact_divide
from hankelab.orthopoly import JacobiData
from hankelab.sequences import catalan_series, f_number, narayana_series, q_integer


def bareiss_det(rows, one=Fraction(1)):
    """Exact determinant by fraction-free elimination; empty matrix gives `one`."""
    n = len(rows)
    if n == 0:
        return one
    work = [list(row) for row in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if not work[k][k]:
            for i in range(k + 1, n):
                if work[i][k]:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return one * 0
        pivot = work[k][k]
        for i in range(k + 1, n):
            left = work[i][k]
            for j in range(k + 1, n):
                work[i][j] = exact_divide(
                    pivot * work[i][j] - left * work[k][j], prev
                )
        prev = pivot
    result = work[n - 1][n - 1]
    return result if sign > 0 else -result


def residue(value, prime: int, point: int = 0) -> int:
    """An exact value mod a prime: a rational number as num * den^-1, a
    polynomial evaluated at `point`.  The prime must divide no denominator."""
    if isinstance(value, Polynomial):
        total = 0
        for c in reversed(value.coeffs):
            total = (total * point + residue(c, prime)) % prime
        return total
    value = Fraction(value)
    if value.denominator % prime == 0:
        raise ValueError(f"{prime} divides the denominator of {value}")
    return value.numerator * pow(value.denominator, -1, prime) % prime


def modular_dets(rows, prime: int, point: int = 0) -> list:
    """Leading minors D_0..D_n of a square matrix mod a prime, each order by
    its own Gaussian elimination with row exchanges over F_p; entries are
    read through `residue` at `point`."""
    matrix = [[residue(a, prime, point) for a in row] for row in rows]
    out = [1]
    for n in range(1, len(matrix) + 1):
        work = [row[:n] for row in matrix[:n]]
        det = 1
        for k in range(n):
            swap = next((i for i in range(k, n) if work[i][k]), None)
            if swap is None:
                det = 0
                break
            if swap != k:
                work[k], work[swap] = work[swap], work[k]
                det = -det
            pivot = work[k][k]
            det = det * pivot % prime
            inverse = pow(pivot, -1, prime)
            for row in work[k + 1:]:
                factor = row[k] * inverse % prime
                row[k:] = [(a - factor * b) % prime for a, b in zip(row[k:], work[k][k:])]
        out.append(det)
    return out


def h_value(n: int, r: int) -> Fraction:
    """Signed constant term of the signed-u orthogonal polynomials."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    if n % 2:
        return Fraction(-r)
    if n == 0:
        return Fraction(1)
    return r * f_number(n + 1, r) / f_number(n, r)


def aerated_u_p0(n: int, r: int) -> Fraction:
    """Value at 0 of the aerated signed-u orthogonal polynomials: 0 at odd
    n and (-1)^h h_value(h, r) at n = 2h."""
    if n < 0:
        raise ValueError("index must be >= 0")
    half = n // 2
    value = (-1) ** half * h_value(half, r)
    return Fraction(0) if n % 2 else value


# -- reference recurrence coefficients ---------------------------------


def u_family_recurrence(r: int, depth: int) -> JacobiData:
    """s = r, 2, 2, ...; t = r, 1, 1, ..."""
    s = ((Fraction(r),) + (Fraction(2),) * depth)[:depth]
    t = ((Fraction(r),) + (Fraction(1),) * depth)[:max(depth - 1, 0)]
    return JacobiData(s, t)


def shifted_catalan_recurrence(depth: int) -> JacobiData:
    s = (Fraction(2),) * depth
    return JacobiData(s, (Fraction(1),) * (depth - 1))


def shifted_narayana_recurrence(depth: int) -> JacobiData:
    one_plus_t = Polynomial((1, 1), "t")
    t = Polynomial.variable_poly("t")
    return JacobiData((one_plus_t,) * depth, (t,) * (depth - 1))


def type_b_recurrence(depth: int) -> JacobiData:
    one_plus_t = Polynomial((1, 1), "t")
    t = Polynomial.variable_poly("t")
    two_t = Polynomial((0, 2), "t")
    tail = ((two_t,) + (t,) * (depth - 2)) if depth > 1 else ()
    return JacobiData((one_plus_t,) * depth, tail)


def double_signed_u_recurrence(r: int, depth: int) -> JacobiData:
    """Recurrence data of the double-signed u-sequence moments."""
    s = [Fraction(-r)][:depth]
    for k in range(1, depth):
        num = Fraction(r * r + r - 1, 1)
        val = num / (f_number(k, r) * f_number(k + 1, r))
        s.append(val if (k - 1) % 2 == 0 else -val)
    t = [
        -f_number(k, r) * f_number(k + 2, r) / f_number(k + 1, r) ** 2
        for k in range(depth - 1)
    ]
    return JacobiData(tuple(s), tuple(t))


def double_signed_u_aerated_t(r: int, count: int) -> list:
    """Period-4 weight pattern of the aerated double-signed u-moments."""
    out = []
    for i in range(count):
        k, j = divmod(i, 4)
        if j == 0:
            out.append(-f_number(2 * k, r) / f_number(2 * k + 1, r))
        elif j == 1:
            out.append(f_number(2 * k + 2, r) / f_number(2 * k + 1, r))
        elif j == 2:
            out.append(-f_number(2 * k + 3, r) / f_number(2 * k + 2, r))
        else:
            out.append(f_number(2 * k + 1, r) / f_number(2 * k + 2, r))
    return out


def aerated_u_weights(r: int, count: int) -> list:
    return [Fraction(r)] + [Fraction(1)] * (count - 1) if count else []


def aerated_narayana_recurrence(depth: int) -> JacobiData:
    t = Polynomial.variable_poly("t")
    weights = [Fraction(1) if k % 2 == 0 else t for k in range(depth - 1)]
    return JacobiData((Fraction(0),) * depth, tuple(weights))


def conv4_recurrence(depth: int) -> JacobiData:
    """Recurrence data behind the fourfold convolution determinants."""
    s = tuple(Fraction(4) if k % 2 == 0 else Fraction(0) for k in range(depth))
    t = []
    for i in range(depth - 1):
        k, j = divmod(i, 2)
        if j == 0:
            t.append(Fraction(-(k + 2), k + 1))
        else:
            t.append(Fraction(-(k + 1), k + 2))
    return JacobiData(s, tuple(t))


def conv4_poly_recurrence(depth: int) -> JacobiData:
    """Recurrence data behind the fourfold convolution polynomial
    determinants; entries are rational functions in t."""
    two_two = Polynomial((2, 2), "t")
    t2 = Polynomial.monomial("t", 2)
    s = tuple(two_two if k % 2 == 0 else Polynomial.zero() for k in range(depth))
    t = []
    for i in range(depth - 1):
        k, j = divmod(i, 2)
        lower = q_integer(k + 1, t2)
        upper = q_integer(k + 2, t2)
        if j == 0:
            t.append(RationalFunction(-upper, lower))
        else:
            t.append(RationalFunction(-(t2 * lower), upper))
    return JacobiData(s, tuple(t))


# -- series references for the closed forms ------------------------------


def u_prefix(r: int, count: int) -> list[Fraction]:
    """u(0..count-1), from one inversion of 1 - r z C(z)."""
    if not count:
        return []
    cat = catalan_series(count - 1)
    denom = PowerSeries(
        [Fraction(1)] + [-r * cat[k] for k in range(count - 1)]
    )
    return list(denom.invert().coeffs)


def conv_prefix(m: int, count: int) -> list[Polynomial]:
    """conv_poly(0..count-1, m), from one power of the narayana series."""
    if not count:
        return []
    full = narayana_series(count)
    start = (full - PowerSeries.one(count)).shift_down(1)
    series = start ** (m // 2)
    if m % 2:
        series = full * series  # a product keeps the shorter order
    return [c if isinstance(c, Polynomial) else Polynomial.constant(c)
            for c in series.coeffs]


# -- the argparse command line parser ------------------------------------


class ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so a caller can emit one stderr line."""

    def error(self, message):
        raise ArgumentError(message)


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
