"""Test-side references.

The determinant oracle is Bareiss elimination with row exchanges, one
matrix at a time.  It shares no code with `hankel._leading_minors`
(which never exchanges rows and reads every leading minor off one pass),
so the two can be checked against each other.

The J-fraction references are the paper's explicit recurrence
coefficients and the orthogonal-polynomial values they give at 0
(`h_value`, `aerated_u_p0`); the tests hold the fit to them."""

from __future__ import annotations

from fractions import Fraction

from hankelab.exactnum import Polynomial, RationalFunction, exact_divide
from hankelab.orthopoly import JacobiData
from hankelab.sequences import f_number, q_integer


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
