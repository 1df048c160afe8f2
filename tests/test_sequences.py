"""Sequence families, spec parsing, transforms, and the series
identities their closed forms rest on."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hankelab import sequences
from hankelab.exactnum import Polynomial, PowerSeries
from hankelab.sequences import (
    SequenceSpec,
    SpecError,
    Transform,
    catalan_convolution,
    catalan_number,
    catalan_series,
    conv_poly,
    f_number,
    fibonacci_number,
    fibonacci_poly,
    lucas_number,
    lucas_poly,
    narayana_b_poly,
    narayana_poly,
    narayana_series,
    parse_spec,
    q_integer,
    terms,
    u_number,
)


def test_catalan_numbers():
    assert terms("catalan", 10) == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_central_binomial_numbers():
    assert terms("central-binomial", 6) == [1, 2, 6, 20, 70, 252]


def test_catalan_convolution_specializations():
    assert [catalan_convolution(n, 1) for n in range(8)] == terms("catalan", 8)
    assert [catalan_convolution(n, 2) for n in range(8)] == terms("catalan|shift:1", 8)
    # convolution property: r-th power of the catalan series
    order = 12
    series = catalan_series(order)
    for r in (3, 5):
        powered = series ** r
        assert all(powered[n] == catalan_convolution(n, r) for n in range(order + 1))


def test_u_numbers_satisfy_defining_equation():
    # (1 - r z C(z)) * U = 1
    order = 20
    z_cat = catalan_series(order).shift_up(1).truncate(order)
    for r in (1, 2, 3):
        series = PowerSeries([u_number(n, r) for n in range(order + 1)])
        lhs = (PowerSeries.one(order) - PowerSeries.constant(r, order) * z_cat) * series
        assert lhs == PowerSeries.one(order)


def test_narayana_polynomial_rows():
    want = ["1", "1", "1 + t", "1 + 3*t + t^2", "1 + 6*t + 6*t^2 + t^3",
            "1 + 10*t + 20*t^2 + 10*t^3 + t^4"]
    assert [str(narayana_poly(n)) for n in range(6)] == want
    assert all(narayana_poly(n).evaluate(Fraction(1)) == catalan_number(n) for n in range(12))


def test_narayana_series_matches_closed_form():
    series = narayana_series(24)
    assert all(series[n] == narayana_poly(n) for n in range(25))


def test_narayana_at_minus_one():
    values = [narayana_poly(n).evaluate(Fraction(-1)) for n in range(10)]
    assert values == [1, 1, 0, -1, 0, 2, 0, -5, 0, 14]


def test_narayana_b_polynomials():
    assert str(narayana_b_poly(2)) == "1 + 4*t + t^2"
    values = [narayana_b_poly(n).evaluate(Fraction(-1)) for n in range(7)]
    assert values == [1, 0, -2, 0, 6, 0, -20]


def test_conv_poly_low_orders_and_list():
    assert all(conv_poly(n, 1) == narayana_poly(n) for n in range(10))
    assert all(conv_poly(n, 2) == narayana_poly(n + 1) for n in range(10))
    want = ["1", "2 + t", "3 + 5*t + t^2", "4 + 14*t + 9*t^2 + t^3",
            "5 + 30*t + 40*t^2 + 14*t^3 + t^4",
            "6 + 55*t + 125*t^2 + 90*t^3 + 20*t^4 + t^5"]
    assert [str(conv_poly(n, 3)) for n in range(6)] == want


def test_conv_poly_at_one_is_catalan_convolution():
    for m in (1, 2, 3, 4, 5, 6):
        for n in range(10):
            assert conv_poly(n, m).evaluate(Fraction(1)) == catalan_convolution(n, m)


def test_conv_poly_difference_identity():
    # t * conv(n, 3) telescopes consecutive narayana polynomials
    t = Polynomial.variable_poly("t")
    for n in range(21):
        assert t * conv_poly(n, 3) == narayana_poly(n + 2) - narayana_poly(n + 1)


def test_fibonacci_lucas_and_f_numbers():
    assert [fibonacci_number(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert [lucas_number(n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]
    assert all(f_number(n, 1) == fibonacci_number(n + 1) for n in range(20))
    assert all(f_number(n, 2) == lucas_number(n) for n in range(20))


def test_cassini_identity():
    for r in range(1, 6):
        drift = r * r + r - 1
        for k in range(1, 31):
            lhs = f_number(k, r) ** 2 - f_number(k - 1, r) * f_number(k + 1, r)
            assert lhs == (drift if k % 2 == 0 else -drift)


def test_fibonacci_lucas_polynomials():
    x = Polynomial.variable_poly("x")
    one = Polynomial.one()
    assert fibonacci_poly(6, one, one) == fibonacci_number(6)
    assert lucas_poly(6, one, one) == lucas_number(6)
    assert fibonacci_poly(3, x, one) == x * x + 1
    assert lucas_poly(2, x, one) == x * x + 2


def test_q_integer_values_and_rejection():
    q = Polynomial.variable_poly("q")
    assert q_integer(1, q) == Polynomial.one()
    assert q_integer(3, q) == Polynomial((1, 1, 1), "q")
    assert q_integer(4, Fraction(2)) == 15
    with pytest.raises(ValueError):
        q_integer(0, q)
    with pytest.raises(ValueError):
        q_integer(-2, q)


def test_double_signed_transform():
    assert terms("catalan|double-signed", 7) == [1, -1, -1, 2, 2, -5, -5]


def test_abs_transform_example():
    assert terms("catalan|double-signed|abs", 9) == [1, 1, 1, 2, 2, 5, 5, 14, 14]


def test_aerate_transform():
    assert terms("catalan|aerate", 8) == [1, 0, 1, 0, 2, 0, 5, 0]


def test_shift_transform():
    assert terms("catalan|shift:2", 4) == [2, 5, 14, 42]


def test_consecutive_sum_transform():
    base = terms("narayana|shift:1", 5)
    summed = terms("narayana|shift:1|consecutive-sum", 4)
    assert summed == [base[i] + base[i + 1] for i in range(4)]


def test_eval_and_scale_transforms():
    at_one = terms("narayana|eval:t=1", 8)
    assert at_one == terms("catalan", 8)
    assert terms("catalan|scale:3", 5) == [3 * c for c in terms("catalan", 5)]
    assert parse_spec("narayana|eval:t=1").kind == "rational"


def test_fibonacci_family_specs():
    assert terms("fibonacci", 8) == [0, 1, 1, 2, 3, 5, 8, 13]
    assert terms("lucas", 6) == [2, 1, 3, 4, 7, 11]
    assert terms("f-number:r=3", 6) == [3, 1, 4, 5, 9, 14]
    walked = terms("f-number:r=4", 40)
    assert walked == [f_number(n, 4) for n in range(40)]
    assert all(type(v) is Fraction for v in walked)


def test_parse_spec_reports_positions():
    with pytest.raises(SpecError) as info:
        parse_spec("nosuch")
    assert info.value.position == 0
    with pytest.raises(SpecError) as info:
        parse_spec("catalan|bogus")
    assert info.value.position == 8
    with pytest.raises(SpecError):
        parse_spec("u")  # missing required parameter
    with pytest.raises(SpecError):
        parse_spec("catalan|shift")  # missing transform argument
    with pytest.raises(SpecError):
        parse_spec("narayana|abs")  # abs needs a rational sequence
    with pytest.raises(SpecError):
        parse_spec("catalan|eval:t=1")  # eval needs a polynomial sequence


def test_terms_rejects_a_bad_transform_in_a_built_spec():
    spec = SequenceSpec("catalan", None, (Transform("bogus"),))
    for count in (0, 3):
        with pytest.raises(SpecError, match="unknown transform 'bogus'"):
            terms(spec, count)
    spec = SequenceSpec("catalan", None, (Transform("shift", -1),))
    with pytest.raises(SpecError, match="shift needs an integer argument >= 0"):
        terms(spec, 3)


def test_terms_checks_a_built_spec_as_its_text_parses():
    spec = SequenceSpec("catalan", None, (Transform("shift", None),))
    with pytest.raises(SpecError, match="shift needs an integer argument >= 0"):
        terms(spec, 5)
    spec = SequenceSpec("catalan", None, (Transform("eval", ("t", 2)),))
    with pytest.raises(SpecError, match="eval only applies to polynomial"):
        terms(spec, 5)
    spec = SequenceSpec("catalan", None, (Transform("scale", "2"),))
    with pytest.raises(SpecError, match="does not match its text"):
        terms(spec, 5)
    with pytest.raises(SpecError, match="unknown family 'bogus'"):
        terms(SequenceSpec("bogus", 2, ()), 5)
    spec = SequenceSpec("narayana", None, (Transform("eval", ("t", 2)),))
    assert terms(spec, 6) == terms("narayana|eval:t=2", 6)
    spec = SequenceSpec("catalan", None, (Transform("scale", 0.5),))
    assert all(type(v) is Fraction for v in terms(spec, 6))


@pytest.mark.parametrize("spec, count, asked", [
    ("catalan|shift:2", 5, [7]),
    ("catalan|double-signed", 7, [4]),
    ("catalan|aerate", 7, [4]),
    ("catalan|consecutive-sum", 4, [5]),
    ("catalan|double-signed|aerate|consecutive-sum", 9, [3]),
    ("catalan|abs|scale:2", 6, [6]),
    ("catalan|shift:3", 0, []),
])
def test_each_stage_asks_for_the_terms_it_needs(monkeypatch, spec, count, asked):
    calls = []
    family = sequences._FAMILIES["catalan"]
    monkeypatch.setitem(sequences._FAMILIES, "catalan", sequences._Family(
        family.kind, family.param_key,
        lambda p, n: calls.append(n) or family.produce(p, n), family.var))
    assert len(terms(spec, count)) == count
    assert calls == asked


def test_terms_counts():
    assert terms("catalan", 0) == []
    assert len(terms("u:r=2|double-signed|aerate", 17)) == 17
    with pytest.raises(ValueError):
        terms("catalan", -1)


def test_catalan_functional_equation():
    # C = 1 + z C^2 through order 32
    order = 32
    series = catalan_series(order)
    rhs = PowerSeries.one(order) + (series * series).shift_up(1).truncate(order)
    assert series == rhs


def test_narayana_functional_equation():
    # C(t,z) = 1 + zC - tzC + tzC^2 through order 24
    order = 24
    series = narayana_series(order)
    t_const = PowerSeries.constant(Polynomial.variable_poly("t"), order)
    z_c = series.shift_up(1).truncate(order)
    z_c2 = (series * series).shift_up(1).truncate(order)
    rhs = PowerSeries.one(order) + z_c - t_const * z_c + t_const * z_c2
    assert series == rhs


def test_narayana_specialization_at_minus_one():
    # C(-1, z) = 1 + z C(-z^2) through order 24
    order = 24
    lhs = PowerSeries(
        [narayana_poly(n).evaluate(Fraction(-1)) for n in range(order + 1)]
    )
    folded = catalan_series(order).compose_monomial(-1, 2).truncate(order)
    rhs = PowerSeries.one(order) + folded.shift_up(1).truncate(order)
    assert lhs == rhs


def test_double_signed_u_generating_function():
    # sum b(n) z^n = (1 - r z C(-z^2)) / (1 + r z^2 C(-z^2)) through order 24
    order = 24
    folded = catalan_series(order).compose_monomial(-1, 2).truncate(order)
    for r in (1, 2, 3):
        r_const = PowerSeries.constant(r, order)
        num = PowerSeries.one(order) - r_const * folded.shift_up(1).truncate(order)
        den = PowerSeries.one(order) + r_const * folded.shift_up(2).truncate(order)
        lhs = PowerSeries(terms(f"u:r={r}|double-signed", order + 1))
        assert lhs * den == num


def test_integrality_invariants_raise_arithmetic_error(monkeypatch):
    # A wrong binomial makes the closed forms non-integral; the check must
    # raise an exception that survives `python -O`, not an assert.
    monkeypatch.setattr(sequences, "binomial", lambda n, k: 1)
    with pytest.raises(ArithmeticError, match="internal error"):
        catalan_convolution(1, 1)
    with pytest.raises(ArithmeticError, match="internal error"):
        narayana_poly(2)


def test_each_prefix_is_built_once(monkeypatch):
    builds = []
    series = sequences.narayana_series
    invert = PowerSeries.invert
    monkeypatch.setattr(sequences, "narayana_series",
                        lambda order: builds.append("narayana") or series(order))
    monkeypatch.setattr(PowerSeries, "invert",
                        lambda self: builds.append("invert") or invert(self))
    conv = terms("convpoly:m=5", 20)
    assert builds == ["narayana"]
    builds.clear()
    u = terms("u:r=3", 20)
    assert builds == ["invert"]
    monkeypatch.undo()
    assert conv == [conv_poly(n, 5) for n in range(20)]
    assert u == [u_number(n, 3) for n in range(20)]
