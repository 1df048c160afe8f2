"""Differential properties of polynomial arithmetic over Q.

A polynomial over Q is stored as reduced int numerators over a positive
denominator, and its sums, products, division and gcds run on those ints.
These properties hold them to the plain `Fraction` loops, written out
here, on coefficients, variable and text, and a difference to the sum with
the negation.  The layout properties check the stored form of every
result, that no result builds coefficient objects, and that equality and
hashing follow the coefficients, also between a `RationalFunction`, a
`Polynomial` and a `Fraction` of equal value.  Division into a rational
function and its negative powers go through its reciprocal.  A
polynomial with `RationalFunction`
coefficients runs the same loops on its coefficient objects, which the
last test pins.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hankelab.exactnum import Polynomial, RationalFunction, poly_gcd

DENOMINATORS = st.integers(-12, 12).filter(bool)
COEFFICIENTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), DENOMINATORS),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.just(1)),
)
POLYS = st.lists(COEFFICIENTS, max_size=7).map(lambda cs: Polynomial(cs, "t"))
NONZERO = POLYS.filter(bool)
SCALES = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2, 3), 3])


def ref_add(a, b, sign=1):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, y in enumerate(b):
        out[i] = out[i] + sign * y
    return out


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def ref_divmod(a, b):
    rem = list(a)
    inv_lead = b[-1].reciprocal() if isinstance(b[-1], RationalFunction) else 1 / b[-1]
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        if not rem[-1]:
            rem.pop()
            continue
        factor = rem[-1] * inv_lead
        shift = len(rem) - len(b)
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = rem[shift + i] - factor * c
        rem.pop()
    return quot, rem


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def ref_monic_gcd(a, b):
    a, b = trimmed(a), trimmed(b)
    while b:
        a, b = b, trimmed(ref_divmod(a, b)[1])
    return [c / a[-1] for c in a]


def ref_reduced(top, bottom):
    """Numerator and denominator of top/bottom, reduced, denominator monic."""
    if not trimmed(top):
        return [], [Fraction(1)]
    g = ref_monic_gcd(top, bottom)
    num, den = ref_divmod(top, g)[0], ref_divmod(bottom, g)[0]
    return [c / den[-1] for c in num], [c / den[-1] for c in den]


def assert_same(poly, coeffs, var="t"):
    expected = Polynomial(coeffs, var)
    assert poly.coeffs == expected.coeffs
    assert [type(c) for c in poly.coeffs] == [type(c) for c in expected.coeffs]
    assert poly.var == expected.var
    assert str(poly) == str(expected)


def assert_layout(poly):
    """nums / den with den > 0, gcd(den, *nums) = 1 and no trailing zero;
    a variable exactly when the degree is positive."""
    assert all(type(c) is int for c in poly.nums)
    assert poly.den > 0 and type(poly.den) is int
    assert math.gcd(poly.den, *poly.nums) == 1
    assert not poly.nums or poly.nums[-1]
    assert (poly.var is None) == (poly.degree <= 0)


@given(st.lists(COEFFICIENTS, max_size=7), POLYS, NONZERO)
def test_every_result_is_stored_reduced_without_building_coefficients(coeffs, a, b):
    calls = []
    coerce = Polynomial._coerce

    def counted(c, var):
        calls.append(c)
        return coerce(c, var)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Polynomial, "_coerce", staticmethod(counted))
        results = [a + b, a - b, -a, a * b, *divmod(a, b), poly_gcd(a, b)]
    assert calls == []
    for poly in (Polynomial(coeffs, "t"), *results):
        assert_layout(poly)


@given(POLYS, POLYS, SCALES)
def test_equality_and_hash_follow_the_coefficients(a, b, scale):
    for p, q in ((a, b), (a, a * scale), (a, Polynomial(a.coeffs, "t"))):
        assert (p == q) == ((p.var, p.coeffs) == (q.var, q.coeffs))
        if p == q:
            assert hash(p) == hash(q)
    if a.degree <= 0:
        assert a == a.constant_term and hash(a) == hash(a.constant_term)


def test_a_constant_stands_for_its_fraction():
    assert {Polynomial.constant(Fraction(3, 2)): 1}[Fraction(3, 2)] == 1
    half_t, third_t = Polynomial.parse("1/2*t"), Polynomial.parse("1/3*t")
    assert half_t.nums == third_t.nums and half_t != third_t


@given(POLYS, NONZERO, NONZERO)
def test_equal_values_hash_alike_across_types(num, den, common):
    c = num.constant_term
    values = [RationalFunction(num, den), RationalFunction(num * common, den * common),
              RationalFunction(num * common, common), num, c,
              Polynomial.constant(c), RationalFunction(c)]
    assert values[0] == values[1] and values[2] == values[3]
    assert values[4] == values[5] == values[6]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)


@given(NONZERO, NONZERO, COEFFICIENTS.filter(bool))
def test_division_into_and_negative_powers_use_the_reciprocal(num, den, c):
    x = RationalFunction(num, den)
    inverse = x.reciprocal()
    for value, expected in ((1 / x, inverse), (c / x, inverse * c),
                            (num / x, inverse * num), (x ** -1, inverse),
                            (x ** -2, inverse * inverse)):
        assert value == expected and str(value) == str(expected)


@given(POLYS, POLYS, COEFFICIENTS)
def test_sum_and_difference_match_fraction_loop(a, b, c):
    assert_same(a + b, ref_add(a.coeffs, b.coeffs))
    assert_same(-b, [-x for x in b.coeffs])
    assert_same(a - b, ref_add(a.coeffs, b.coeffs, -1))
    assert_same(a - b, (a + (-b)).coeffs)
    assert_same(c - a, ref_add([c], a.coeffs, -1))
    assert_same(a - c, ref_add(a.coeffs, [c], -1))


@given(POLYS, POLYS)
def test_product_matches_fraction_loop(a, b):
    assert_same(a * b, ref_mul(a.coeffs, b.coeffs))


@given(POLYS, NONZERO)
def test_divmod_matches_fraction_loop(a, b):
    quot, rem = divmod(a, b)
    ref_quot, ref_rem = ref_divmod(a.coeffs, b.coeffs)
    assert_same(quot, ref_quot)
    assert_same(rem, ref_rem)


@given(POLYS, NONZERO)
def test_exact_division_undoes_a_product(a, b):
    assert_same((a * b).exact_div(b), a.coeffs)


@given(POLYS, POLYS, NONZERO)
def test_gcd_matches_euclid_over_q(a, b, common):
    a, b = a * common, b * common
    assert_same(poly_gcd(a, b), ref_monic_gcd(a.coeffs, b.coeffs))


@given(POLYS, NONZERO, NONZERO)
def test_rational_function_is_reduced_and_monic(num, den, common):
    for top, bottom in ((num, den), (num * common, den * common)):
        rf = RationalFunction(top, bottom)
        ref_num, ref_den = ref_reduced(top.coeffs, bottom.coeffs)
        assert_same(rf.num, ref_num)
        assert_same(rf.den, ref_den)


@given(POLYS, NONZERO, POLYS, NONZERO, COEFFICIENTS)
def test_rational_function_difference_matches_fraction_loop(
    num1, den1, num2, den2, c
):
    x, y = RationalFunction(num1, den1), RationalFunction(num2, den2)
    diff = x - y
    ref_num, ref_den = ref_reduced(
        ref_add(ref_mul(x.num.coeffs, y.den.coeffs),
                ref_mul(y.num.coeffs, x.den.coeffs), -1),
        ref_mul(x.den.coeffs, y.den.coeffs),
    )
    assert_same(diff.num, ref_num)
    assert_same(diff.den, ref_den)
    assert diff == x + (-y) and str(diff) == str(x + (-y))
    for value, ref_top in ((c - x, ref_add(ref_mul([c], x.den.coeffs),
                                           x.num.coeffs, -1)),
                           (x - c, ref_add(x.num.coeffs,
                                           ref_mul([c], x.den.coeffs), -1))):
        ref_num, ref_den = ref_reduced(ref_top, x.den.coeffs)
        assert_same(value.num, ref_num)
        assert_same(value.den, ref_den)


def test_rational_function_coefficients_take_the_fraction_loop():
    over_one_plus_t = RationalFunction.parse("1 / (1 + t)")
    t_over_one_minus_t = RationalFunction.parse("t / (1 - t)")
    a = Polynomial([over_one_plus_t, Fraction(2), t_over_one_minus_t], "x")
    b = Polynomial([Fraction(1, 3), over_one_plus_t], "x")
    assert_same(a + b, ref_add(a.coeffs, b.coeffs), "x")
    assert_same(a - b, ref_add(a.coeffs, b.coeffs, -1), "x")
    assert_same(b - a, ref_add(b.coeffs, a.coeffs, -1), "x")
    assert_same(a * b, ref_mul(a.coeffs, b.coeffs), "x")
    quot, rem = divmod(a, b)
    ref_quot, ref_rem = ref_divmod(a.coeffs, b.coeffs)
    assert_same(quot, ref_quot, "x")
    assert_same(rem, ref_rem, "x")
    assert_same((a * b).exact_div(b), a.coeffs, "x")
    assert any(isinstance(c, RationalFunction) for c in (a * b).coeffs)
