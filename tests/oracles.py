"""Test-side determinant oracle: Bareiss elimination with row exchanges,
one matrix at a time.  It shares no code with `hankel._leading_minors`
(which never exchanges rows and reads every leading minor off one pass),
so the two can be checked against each other."""

from __future__ import annotations

from fractions import Fraction

from hankelab.exactnum import exact_divide


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
