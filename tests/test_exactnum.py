"""Ring axioms, parsing round trips, and series arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hankelab import ring
from hankelab.exactnum import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    VariableMismatchError,
    _cleared,
    binomial,
    exact_divide,
    poly_gcd,
)


def _random_poly(rng: random.Random, var: str = "t", max_degree: int = 8) -> Polynomial:
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(degree + 1)]
    return Polynomial(coeffs, var)


def _random_rational(rng: random.Random) -> RationalFunction:
    num = _random_poly(rng, max_degree=4)
    den = _random_poly(rng, max_degree=3)
    while not den:
        den = _random_poly(rng, max_degree=3)
    return RationalFunction(num, den)


def test_binomial_pascal_rule_and_boundaries():
    for n in range(12):
        for k in range(-2, n + 3):
            expected = binomial(n, k)
            if 0 <= k <= n:
                assert expected == binomial(n - 1, k - 1) + binomial(n - 1, k) or n == 0
            else:
                assert expected == 0
    assert binomial(10, 3) == 120


def test_polynomial_ring_axioms_random():
    rng = random.Random(11017)
    zero = Polynomial.zero()
    one = Polynomial.one()
    for _ in range(60):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero


def test_polynomial_pow_matches_repeated_product():
    rng = random.Random(13)
    for _ in range(10):
        a = _random_poly(rng, max_degree=3)
        acc = Polynomial.one()
        for e in range(5):
            assert a ** e == acc
            acc = acc * a


@pytest.mark.parametrize("cls, base", [
    (Polynomial, Polynomial((1, 2, 3), "t")),
    (PowerSeries, PowerSeries([1, 2, 3, 4])),
])
def test_pow_takes_no_wasted_products(monkeypatch, cls, base):
    # Squaring: one product per square, one per further set bit, and none
    # by the unit or past the top bit.
    calls = []
    product = cls.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    expected = {0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3}
    unit = Polynomial.one() if cls is Polynomial else PowerSeries.one(base.order)
    for e, products in expected.items():
        calls.clear()
        power = base ** e
        assert len(calls) == products, e
        acc = unit
        for _ in range(e):
            acc = product(acc, base)
        assert power == acc


def test_polynomial_divmod_and_exact_division():
    rng = random.Random(977)
    for _ in range(40):
        a = _random_poly(rng)
        b = _random_poly(rng, max_degree=4)
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree or not r
        assert (a * b).exact_div(b) == a
    with pytest.raises(ArithmeticError):
        Polynomial((1, 0, 1), "t").exact_div(Polynomial((1, 1), "t"))


def test_polynomial_product_example():
    a = Polynomial.parse("2 + t")
    b = Polynomial.parse("2 + 9*t + 7*t^2 + t^3")
    assert a * b == Polynomial.parse("4 + 20*t + 23*t^2 + 9*t^3 + t^4")


def test_polynomial_quotient_example():
    num = Polynomial.parse("-1 + t^2")
    den = Polynomial.parse("-1 + t")
    assert num.exact_div(den) == Polynomial.parse("1 + t")


def test_polynomial_str_parse_round_trip():
    rng = random.Random(40199)
    for _ in range(40):
        a = _random_poly(rng)
        assert Polynomial.parse(str(a)) == a
    assert str(Polynomial.zero()) == "0"
    assert Polynomial.parse("0") == Polynomial.zero()
    assert str(Polynomial((Fraction(-2, 45), 0, 1), "t")) == "-2/45 + t^2"


def test_polynomial_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Polynomial.parse("t +")
    with pytest.raises(ValueError):
        Polynomial.parse("2 @ 3")
    with pytest.raises(ValueError):
        Polynomial.parse("t t")
    with pytest.raises(VariableMismatchError):
        Polynomial.parse("t + x")


def test_polynomial_parse_reads_rational_coefficients_only():
    # str() writes a ring coefficient in parentheses, which parse refuses.
    x = Polynomial.variable_poly("x")
    nested = x * RationalFunction(Polynomial.variable_poly("t"))
    assert str(nested) == "(t)*x"
    with pytest.raises(ValueError, match="cannot parse polynomial"):
        Polynomial.parse(str(nested))


def test_polynomial_variable_mismatch():
    t = Polynomial.variable_poly("t")
    x = Polynomial.variable_poly("x")
    with pytest.raises(VariableMismatchError):
        _ = t + x
    # constants carry no variable, so they mix with anything
    assert Polynomial.constant(3) + t == Polynomial((3, 1), "t")


def test_a_nonconstant_polynomial_needs_a_variable():
    with pytest.raises(ValueError, match="needs a variable"):
        Polynomial((1, 2))
    for coeffs, value in (((5,), 5), ((1, 0), 1), ((), 0)):
        constant = Polynomial(coeffs)
        assert constant.var is None and constant.degree <= 0
        assert constant == Polynomial.constant(value)


def test_polynomial_evaluate_and_compose():
    rng = random.Random(5521)
    for _ in range(20):
        a = _random_poly(rng, max_degree=5)
        b = _random_poly(rng, max_degree=3)
        point = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert a.compose(b).evaluate(point) == a.evaluate(b.evaluate(point))
    square = Polynomial((0, 0, 1), "t")
    assert Polynomial((1, 1), "t").compose(square) == Polynomial((1, 0, 1), "t")


def test_polynomial_coefficients_in_another_variable():
    coeff = RationalFunction(Polynomial.variable_poly("t"))
    p = Polynomial((coeff, 1), "x")
    q = p * p
    assert q.coefficient(1) == 2 * coeff
    with pytest.raises(VariableMismatchError):
        Polynomial((RationalFunction(Polynomial.variable_poly("x")),), "x")


def test_mixed_variable_reflect_rules():
    """A constant or a value in another variable is absorbed as a
    coefficient; a rational function in the polynomial's own variable, or
    beside a constant polynomial, takes over the operation."""
    t = Polynomial.variable_poly("t")
    x = Polynomial.variable_poly("x")
    rt = RationalFunction(t, t + 1)
    c = Polynomial.constant(3)
    rc = RationalFunction(Polynomial.constant(2))
    table = [
        ("c + rc", c + rc, Polynomial, "5"),
        ("rc + c", rc + c, RationalFunction, "5"),
        ("c * rc", c * rc, Polynomial, "6"),
        ("x + rt", x + rt, Polynomial, "(t / (1 + t)) + x"),
        ("rt + x", rt + x, Polynomial, "(t / (1 + t)) + x"),
        ("x * rt", x * rt, Polynomial, "(t / (1 + t))*x"),
        ("c + rt", c + rt, RationalFunction, "(3 + 4*t) / (1 + t)"),
        ("rt + c", rt + c, RationalFunction, "(3 + 4*t) / (1 + t)"),
        ("t + rt", t + rt, RationalFunction, "(2*t + t^2) / (1 + t)"),
        ("t * rt", t * rt, RationalFunction, "t^2 / (1 + t)"),
    ]
    for name, value, kind, text in table:
        assert (type(value), str(value)) == (kind, text), name


def test_poly_gcd_normalizes():
    a = Polynomial.parse("-1 + t^2")
    b = Polynomial.parse("1 + 2*t + t^2")
    g = poly_gcd(a, b)
    assert g == Polynomial.parse("1 + t")


def test_rational_function_reduces_and_compares():
    num = Polynomial.parse("-1 + t^2")
    den = Polynomial.parse("-1 + t")
    rf = RationalFunction(num, den)
    assert rf == Polynomial.parse("1 + t")
    assert RationalFunction(Polynomial.parse("2 + 2*t"), Polynomial.parse("1 + t")) == 2


def test_rational_function_negation_takes_no_gcd(monkeypatch):
    calls = []
    gcd = ring.poly_gcd

    def counted(a, b):
        calls.append(1)
        return gcd(a, b)

    x = RationalFunction(Polynomial.parse("1 + t"), Polynomial.parse("2 + t^2"))
    monkeypatch.setattr(ring, "poly_gcd", counted)
    negated = -x
    assert calls == []
    expected = RationalFunction(-x.num, x.den)
    assert calls == [1]  # the patch is where RationalFunction looks
    assert (negated.num, negated.den) == (expected.num, expected.den)
    assert str(negated) == str(expected) == "(-1 - t) / (2 + t^2)"


def test_rational_function_field_axioms_random():
    rng = random.Random(90001)
    for _ in range(40):
        a = _random_rational(rng)
        b = _random_rational(rng)
        c = _random_rational(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RationalFunction(Polynomial.zero())
        if b:
            assert (a / b) * b == a
            assert b * b.reciprocal() == 1


def test_rational_function_str_parse_round_trip():
    rng = random.Random(3313)
    for _ in range(25):
        a = _random_rational(rng)
        assert RationalFunction.parse(str(a)) == a
    parsed = RationalFunction.parse("-1 + t / 2 + t")
    assert parsed == RationalFunction(Polynomial.parse("-1 + t"), Polynomial.parse("2 + t"))


def test_rational_function_as_fraction():
    assert RationalFunction(Polynomial.constant(6), Polynomial.constant(4)).as_fraction() == Fraction(3, 2)
    with pytest.raises(ValueError):
        RationalFunction(Polynomial.variable_poly("t")).as_fraction()


def test_power_series_truncating_arithmetic():
    a = PowerSeries([1, 2, 3, 4])
    b = PowerSeries([0, 1, 1, 1])
    assert (a * b).order == 3
    assert (a * b)[0] == 0
    assert (a * b)[1] == 1
    assert (a * b)[3] == 1 + 2 + 3 + 4 - 4  # coefficient of z^3 in the product


def test_power_series_difference_truncates_to_the_shorter_operand():
    r = RationalFunction(1, 1 + _T)
    a = PowerSeries([Fraction(1, 2), _T, r, 3, 5])
    b = PowerSeries([r, Fraction(2, 3), _T * _T, Fraction(1, 4)])
    assert [(type(c), str(c)) for c in (a - b).coeffs] == [
        (RationalFunction, "(-1/2 + 1/2*t) / (1 + t)"),
        (Polynomial, "-2/3 + t"),
        (RationalFunction, "(1 - t^2 - t^3) / (1 + t)"),
        (Fraction, "11/4"),
    ]
    assert [(type(c), str(c)) for c in (b - a).coeffs] == [
        (RationalFunction, "(1/2 - 1/2*t) / (1 + t)"),
        (Polynomial, "2/3 - t"),
        (RationalFunction, "(-1 + t^2 + t^3) / (1 + t)"),
        (Fraction, "-11/4"),
    ]


def test_power_series_scalar_products():
    s = PowerSeries([1, 2, 3])
    half = s * Fraction(1, 2)
    assert half.coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
    assert (2 * s).coeffs == (2, 4, 6)
    assert all(type(c) is Fraction for c in half.coeffs + (2 * s).coeffs)
    t = Polynomial.variable_poly("t")
    assert (s * t).coeffs == (t, 2 * t, 3 * t)


def test_power_series_invert_round_trip():
    rng = random.Random(777)
    for _ in range(15):
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-4, 4)) for _ in range(10)
        ]
        s = PowerSeries(coeffs)
        assert s * s.invert() == PowerSeries.one(10)


def test_power_series_invert_takes_a_constant_polynomial_term():
    t = Polynomial.variable_poly("t")
    s = PowerSeries([Polynomial.constant(2), t, t * t])
    inverse = s.invert()
    assert inverse.coeffs == (Fraction(1, 2), t * Fraction(-1, 4), t * t * Fraction(-1, 8))
    assert s * inverse == PowerSeries.one(2)
    with pytest.raises(TypeError, match="scalar constant term"):
        PowerSeries([t + 1, t]).invert()


def test_power_series_invert_takes_a_rational_function_term():
    t = Polynomial.variable_poly("t")
    s = PowerSeries([RationalFunction(t), 1, 0])
    inverse = s.invert()
    assert [str(c) for c in inverse.coeffs] == ["1 / t", "-1 / t^2", "1 / t^3"]
    assert s * inverse == PowerSeries.one(2)


def test_power_series_shift_round_trip():
    s = PowerSeries([1, 2, 3])
    assert s.shift_up(2).shift_down(2) == s
    assert s.shift_up(1)[0] == 0


def test_power_series_compose_monomial():
    s = PowerSeries([1, 1, 1, 1])
    # z -> -z^2 keeps even slots with alternating signs
    out = s.compose_monomial(-1, 2)
    assert out[0] == 1
    assert out[1] == 0
    assert out[2] == -1
    assert out[4] == 1


def test_exact_divide_dispatch():
    assert exact_divide(Fraction(3, 2), Fraction(1, 2)) == 3
    t = Polynomial.variable_poly("t")
    assert exact_divide(t * t + t, t) == t + 1
    with pytest.raises(ArithmeticError):
        exact_divide(t * t + 1, t)
    quot = exact_divide(-6, 3)
    assert quot == -2 and type(quot) is int
    with pytest.raises(ArithmeticError):
        exact_divide(7, 2)


def test_power_series_zero():
    zero = PowerSeries.zero(3)
    assert zero.order == 3
    assert zero.coeffs == (Fraction(0),) * 4
    assert zero == PowerSeries([1, 2, 3, 4]) * 0


_T = Polynomial.variable_poly("t")


@pytest.mark.parametrize(("value", "text"), [
    (Polynomial.parse("1 - 2*t^2"), "Polynomial('1 - 2*t^2')"),
    (RationalFunction(1, 1 + _T), "RationalFunction('1 / (1 + t)')"),
    (PowerSeries([1, Fraction(1, 2), _T]), "PowerSeries([1, 1/2, t] order=2)"),
    (PowerSeries(range(8)), "PowerSeries([0, 1, 2, 3, 4, 5, ...] order=7)"),
])
def test_repr_shows_the_type_and_the_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize(("a", "b", "gcd"), [
    (6, Polynomial.parse("2 + 2*t"), "1"),
    (Polynomial.parse("2 + 2*t"), Fraction(0), "1 + t"),
    (0, 0, "0"),
])
def test_poly_gcd_takes_a_scalar_argument(a, b, gcd):
    assert str(poly_gcd(a, b)) == gcd


def test_rational_function_equals_a_constant_polynomial_holding_it():
    value = RationalFunction(1, 1 + _T)
    assert value == Polynomial((value,))
    assert value != Polynomial((value + 1,))


_R = RationalFunction(1, 1 + _T)


@pytest.mark.parametrize(("p", "q", "c"), [
    (Polynomial.parse("1 + 2*t"), Polynomial.parse("t - 3*t^2"), Fraction(2, 3)),
    (Polynomial([_R, 2], "x"), Polynomial([1, _R, _R], "x"), _R),
    (_R, RationalFunction(_T, 1 - _T), Fraction(2, 3)),
    (PowerSeries([1, _T, _R]), PowerSeries([_R, 2, Fraction(1, 2), 3]), None),
])
def test_a_subtraction_goes_through_add(monkeypatch, p, q, c):
    # a - b is a + (-b), so wrapping `__add__`, as the benchmark tracer
    # does, catches every subtraction.
    added = []
    for cls in (Polynomial, RationalFunction, PowerSeries):
        def counted(self, other, add=cls.__add__):
            added.append(type(self))
            return add(self, other)
        monkeypatch.setattr(cls, "__add__", counted)
    negated = (lambda x: x * -1) if isinstance(p, PowerSeries) else (lambda x: -x)
    cases = [(lambda: p - q, lambda: p + negated(q))]
    if c is not None:
        cases += [(lambda: c - p, lambda: negated(p) + c),
                  (lambda: p - c, lambda: p + (-c))]
    for difference, total in cases:
        added.clear()
        value = difference()
        assert type(p) in added
        expected = total()
        assert (type(value), str(value)) == (type(expected), str(expected))
        assert value == expected


# A foreign operand is refused, not absorbed: each operator returns
# NotImplemented, so Python raises TypeError or compares by identity.
_FOREIGN = "x"


@pytest.mark.parametrize("op", [
    lambda: Polynomial.one() + _FOREIGN,
    lambda: Polynomial.one() - _FOREIGN,
    lambda: _FOREIGN - Polynomial.one(),
    lambda: RationalFunction(_T) - _FOREIGN,
    lambda: _FOREIGN - RationalFunction(_T),
    lambda: RationalFunction(_T) / _FOREIGN,
    lambda: _FOREIGN / RationalFunction(_T),
    lambda: PowerSeries.one(2) + 1,
    lambda: PowerSeries.one(2) - 1,
    lambda: PowerSeries.one(2) * _FOREIGN,
    lambda: divmod(_T, _FOREIGN),
    lambda: divmod(_T, 1.5),
    lambda: divmod(_T, RationalFunction(_T)),
    lambda: _T.exact_div(_FOREIGN),
    lambda: exact_divide(_T, 1.5),
    lambda: _T * _FOREIGN,
    lambda: RationalFunction(_T) + _FOREIGN,
    lambda: RationalFunction(_T) * _FOREIGN,
])
def test_a_foreign_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op()


@pytest.mark.parametrize("op", [
    lambda: divmod(_T, 0),
    lambda: divmod(_T, Polynomial.zero()),
    lambda: _T.exact_div(0),
])
def test_only_a_zero_divisor_raises_zero_division_error(op):
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        op()


@pytest.mark.parametrize("value", [RationalFunction(_T), PowerSeries.one(2)])
def test_a_foreign_operand_compares_unequal(value):
    assert value != _FOREIGN


@pytest.mark.parametrize(("parts", "scale"), [
    ([[_T, 1]], None),
    ([[1, 2], [Fraction(1, 2), _R]], None),
    ([[Polynomial.one()]], None),
    ([], 1),
    ([[]], 1),
    ([[1, Fraction(1, 6)], [Fraction(-3, 4)]], 12),
])
def test_cleared_gives_no_scale_unless_every_part_holds_numbers(parts, scale):
    cleared, got = _cleared(*parts)
    assert got == scale
    if scale is None:
        assert cleared == tuple(parts)
    else:
        assert [[Fraction(c, scale) for c in part] for part in cleared] == parts


_S = PowerSeries([1, 2, 3])


@pytest.mark.parametrize(("error", "op"), [
    (TypeError, lambda: Polynomial(["x"], "t")),
    (ValueError, lambda: Polynomial.monomial("t", -1)),
    (ValueError, lambda: _T ** -1),
    (TypeError, lambda: poly_gcd(Polynomial([_R, 1], "x"), Polynomial([1, 1], "x"))),
    (ZeroDivisionError, lambda: RationalFunction(1, 0)),
    (ZeroDivisionError, lambda: RationalFunction(0).reciprocal()),
    (ZeroDivisionError, lambda: _R / 0),
    (TypeError, lambda: RationalFunction("x")),
    (ValueError, lambda: _R ** 1.5),
    (TypeError, lambda: PowerSeries(["x"])),
    (ZeroDivisionError, lambda: PowerSeries([0, 1]).invert()),
    (ValueError, lambda: PowerSeries([])),
    (ValueError, lambda: _S.truncate(_S.order + 1)),
    (ValueError, lambda: _S ** -1),
    (ValueError, lambda: _S.shift_up(-1)),
    (ValueError, lambda: _S.shift_down(-1)),
    (ValueError, lambda: _S.shift_down(_S.order + 1)),
    (ValueError, lambda: PowerSeries([1, 1]).shift_down(1)),
    (ValueError, lambda: _S.compose_monomial(2, 0)),
])
def test_ring_input_checks(error, op):
    with pytest.raises(error):
        op()
