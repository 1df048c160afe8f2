"""Path-weight triangle, the nonintersecting-family oracle, and the
dual-path sums."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hankelab.exactnum import Polynomial
from hankelab.hankel import det_exact, hankel_matrix
from hankelab.lattice import (
    LGV_LIMIT,
    dual_sum,
    dual_sum_closed,
    dual_sum_total,
    lgv_bruteforce,
    lgv_matrix,
    weighted_triangle_entry,
)
from hankelab.orthopoly import triangle
from hankelab.sequences import conv_poly
from oracles import aerated_narayana_recurrence


def test_triangle_row_four():
    want = ["1 + t", "0", "2 + t", "0", "1"]
    got = [str(weighted_triangle_entry(4, j)) for j in range(5)]
    assert got == want


def test_triangle_row_six():
    want = ["1 + 3*t + t^2", "0", "3 + 5*t + t^2", "0", "3 + 2*t", "0", "1"]
    got = [str(weighted_triangle_entry(6, j)) for j in range(7)]
    assert got == want


def test_triangle_row_eight():
    want = [
        "1 + 6*t + 6*t^2 + t^3", "0", "4 + 14*t + 9*t^2 + t^3", "0",
        "6 + 11*t + 3*t^2", "0", "4 + 3*t", "0", "1",
    ]
    got = [str(weighted_triangle_entry(8, j)) for j in range(9)]
    assert got == want


def test_triangle_agrees_with_recurrence_scheme():
    rows = 13
    tri = triangle(aerated_narayana_recurrence(rows), rows)
    for n in range(rows):
        for j in range(rows):
            assert weighted_triangle_entry(n, j) == tri.entry(n, j)


def test_triangle_column_two_is_threefold_convolution():
    for n in range(10):
        assert weighted_triangle_entry(2 * n + 2, 2) == conv_poly(n, 3)


def test_lgv_matrix_entries():
    rows = lgv_matrix(3)
    for i in range(3):
        for j in range(3):
            assert rows[i][j] == conv_poly(i + j, 3)


def test_lgv_bruteforce_small_orders():
    assert lgv_bruteforce(0) == Polynomial.one()
    assert lgv_bruteforce(1) == Polynomial.one()
    assert lgv_bruteforce(2) == Polynomial.parse("-1 + t")


@pytest.mark.parametrize(("n", "nums", "den", "var"), [
    (0, (1,), 1, None),
    (1, (1,), 1, None),
    (2, (-1, 1), 1, "t"),
    (3, (0, 0, -2, 1), 1, "t"),
    (4, (0, 0, 0, 0, 1, -3, 1), 1, "t"),
])
def test_lgv_bruteforce_layout(n, nums, den, var):
    # Orders 0 and 1 are the constant 1, with no variable.
    value = lgv_bruteforce(n)
    assert (value.nums, value.den, value.var) == (nums, den, var)


def test_lgv_bruteforce_matches_determinant():
    for n in range(LGV_LIMIT + 1):
        det = det_exact(hankel_matrix("convpoly:m=3", n))
        assert lgv_bruteforce(n) == det


def test_lgv_at_one_gives_periodic_pattern():
    pattern = [1, 1, 0, -1, -1]
    for n in range(5):
        value = lgv_bruteforce(n).evaluate(Fraction(1)) if n <= LGV_LIMIT else None
        assert value == pattern[n]


def test_lgv_refuses_large_orders():
    with pytest.raises(ValueError):
        lgv_bruteforce(LGV_LIMIT + 1)
    with pytest.raises(ValueError):
        lgv_bruteforce(-1)


@pytest.mark.parametrize("op", [
    lambda: weighted_triangle_entry(-1, 0),
    lambda: dual_sum_closed(-1),
])
def test_lattice_refuses_a_negative_index(op):
    with pytest.raises(ValueError):
        op()


def test_dual_sum_blocks():
    assert dual_sum(3, 0) == (0, Polynomial.one())
    shift, block = dual_sum(3, 1)
    assert shift == 2 and block == Polynomial.parse("1 + 2*t")
    shift, block = dual_sum(3, 2)
    assert shift == 2 and block == Polynomial.one()
    with pytest.raises(ValueError):
        dual_sum(3, 3)


def test_dual_sum_total_example():
    assert dual_sum_total(3) == Polynomial.parse("-2*t^2 + t^3")


def test_dual_sum_total_matches_closed_form():
    for n in range(1, 11):
        assert dual_sum_total(n) == dual_sum_closed(n)
    with pytest.raises(ValueError):
        dual_sum_total(0)


def test_dual_sum_closed_matches_determinants():
    for n in range(9):
        det = det_exact(hankel_matrix("convpoly:m=3", n))
        assert dual_sum_closed(n) == det
