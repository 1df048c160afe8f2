"""Recurrence fitting, the triangle scheme, orthogonal polynomials, and
the determinant identities tying them together."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hankelab import orthopoly, ring
from hankelab.exactnum import Polynomial, RationalFunction
from hankelab.hankel import det_cofactor, det_exact, hankel_matrix
from hankelab.orthopoly import (
    JacobiData,
    ZeroHankelMinorError,
    aerated_triangle,
    aeration_collapse,
    det_product_formula,
    fit_recurrence,
    fit_spec,
    moment_functional,
    moments_from_recurrence,
    ortho_value,
    pencil_identity_check,
    poly_from_recurrence,
    shifted_det,
    triangle,
)
from hankelab.sequences import (
    binomial,
    catalan_convolution,
    fibonacci_poly,
    terms,
)

FITTABLE = [
    "catalan",
    "catalan|shift:1",
    "central-binomial",
    "u:r=1",
    "u:r=2",
    "u:r=3",
    "u:r=2|double-signed",
    "u:r=2|aerate",
    "catalan|aerate",
    "catalan|double-signed",
    "narayana",
    "narayana|shift:1",
    "narayana-b",
    "convpoly:m=3",
    "convpoly:m=4",
]


def test_fit_shifted_catalan():
    data = fit_spec("catalan|shift:1", 4)
    assert list(data.s) == [2, 2, 2, 2]
    assert list(data.t) == [1, 1, 1]


def test_fit_shifted_narayana():
    data = fit_spec("narayana|shift:1", 4)
    one_plus_t = Polynomial.parse("1 + t")
    t = Polynomial.parse("t")
    assert all(v == one_plus_t for v in data.s)
    assert all(v == t for v in data.t)


def test_fit_narayana_b():
    data = fit_spec("narayana-b", 4)
    assert all(v == Polynomial.parse("1 + t") for v in data.s)
    assert data.t[0] == Polynomial.parse("2*t")
    assert all(v == Polynomial.parse("t") for v in data.t[1:])


def test_fit_over_q_of_t_runs_no_gcd_for_constant_denominators(monkeypatch):
    calls = []
    gcd = ring.poly_gcd
    monkeypatch.setattr(ring, "poly_gcd",
                        lambda a, b: calls.append(1) or gcd(a, b))
    data = fit_spec("narayana", 20)
    monkeypatch.undo()
    # Every Jacobi parameter is a polynomial in t, so almost every
    # RationalFunction built on the way has a constant denominator.
    assert 0 < len(calls) < 100
    assert data.s == (1,) + (Polynomial.parse("1 + t"),) * 19
    assert data.t == (Polynomial.parse("t"),) * 19


def test_the_field_fit_divides_each_ratio_once(monkeypatch):
    calls = []
    divide = ring.RationalFunction.__truediv__
    monkeypatch.setattr("hankelab.ring.RationalFunction.__truediv__",
                        lambda a, b: calls.append(1) or divide(a, b))
    data = fit_spec("narayana", 20)
    monkeypatch.undo()
    # r(0), then t(k-1) and r(k) for each of the rows k = 1 .. 19.
    assert len(calls) == 39 == 2 * (data.depth - 1) + 1


def test_rational_moments_never_reach_the_rational_function_loop(monkeypatch):
    fitted = []
    fit = orthopoly._fit_field
    monkeypatch.setattr(orthopoly, "_fit_field",
                        lambda moments: fitted.append(1) or fit(moments))
    fit_spec("narayana", 3)
    assert fitted

    def refuse(moments):
        raise AssertionError("rational moments reached the RationalFunction loop")

    monkeypatch.setattr(orthopoly, "_fit_field", refuse)
    for spec in ("catalan|double-signed", "narayana|eval:t=-1/3", "u:r=3"):
        assert moments_from_recurrence(fit_spec(spec, 6), 12) == terms(spec, 12)
    fit_recurrence([1, Fraction(1, 2), 3, Fraction(-7, 5)], 2)
    with pytest.raises(ZeroHankelMinorError):
        fit_spec("catconv:r=5", 4)


def test_fit_validations():
    with pytest.raises(ValueError):
        fit_recurrence([Fraction(2), Fraction(1)], 1)  # leading moment not 1
    with pytest.raises(ValueError):
        fit_recurrence([Fraction(1), Fraction(1), Fraction(2)], 2)  # odd count
    with pytest.raises(ValueError):
        fit_recurrence([], 0)  # the leading moment is always required
    empty = fit_recurrence([Fraction(1)], 0)
    assert empty.s == () and empty.t == ()


def test_fit_spec_at_depth_zero_and_below():
    empty = fit_spec("catalan", 0)
    assert empty.s == () and empty.t == ()
    with pytest.raises(ValueError, match="depth must be >= 0"):
        fit_spec("catalan", -1)


def test_fit_zero_minor_reports_order():
    with pytest.raises(ZeroHankelMinorError) as info:
        fit_spec("catalan|double-signed|abs", 3)
    assert info.value.order == 2


def test_fit_moment_round_trip():
    for spec in FITTABLE:
        data = fit_spec(spec, 6)
        assert moments_from_recurrence(data, 12) == terms(spec, 12)


def test_triangle_column_zero_recovers_moments():
    for spec in ("catalan", "u:r=3", "narayana", "convpoly:m=3"):
        data = fit_spec(spec, 8)
        tri = triangle(data, 8)
        assert list(tri.column0()) == terms(spec, 8)


def test_triangle_row_is_the_stored_tuple():
    tri = triangle(fit_spec("catalan", 3), 4)
    assert tri.row(3) == (5, 9, 5, 1)
    assert [tri.row(n) for n in range(4)] == list(tri.rows)


def test_triangle_needs_enough_coefficients():
    data = fit_spec("catalan", 3)
    with pytest.raises(ValueError):
        triangle(data, 8)


def test_moments_from_recurrence_bounds():
    data = fit_spec("catalan", 3)
    with pytest.raises(ValueError):
        moments_from_recurrence(data, 7)


_JD = fit_spec("catalan", 3)


@pytest.mark.parametrize("op", [
    lambda: aerated_triangle([1], 4),
    lambda: ortho_value(_JD, _JD.depth + 1, 0),
    lambda: det_product_formula(_JD, len(_JD.t) + 2),
    lambda: moment_functional([1, 2], Polynomial.monomial("t", 2)),
])
def test_arguments_past_the_data_raise_value_error(op):
    with pytest.raises(ValueError):
        op()


def test_product_formula_and_shifted_dets():
    for spec in ("catalan", "u:r=2", "narayana", "convpoly:m=4"):
        data = fit_spec(spec, 8)
        for n in range(9):
            det0 = det_exact(hankel_matrix(spec, n))
            assert det_product_formula(data, n) == det0
            det1 = det_exact(hankel_matrix(spec, n, 1))
            assert shifted_det(data, n, det0) == det1


def test_orthogonality_of_fitted_polynomials():
    for spec in ("catalan", "u:r=2", "narayana"):
        data = fit_spec(spec, 9)
        moments = terms(spec, 18)
        for n in range(9):
            poly = poly_from_recurrence(data, n)
            value = moment_functional(moments, poly)
            assert value == (1 if n == 0 else 0)


def test_fitted_polynomials_are_monic():
    data = fit_spec("u:r=3", 6)
    for n in range(6):
        poly = poly_from_recurrence(data, n)
        assert poly.degree == n
        assert poly.coefficient(n) == 1
        assert ortho_value(data, n, Fraction(2)) == poly.evaluate(Fraction(2))


def _bordered_poly(moments, n, lift) -> Polynomial:
    """Monic orthogonal polynomial as a bordered Hankel determinant.

    Cofactor expansion only: the border column mixes variables, which the
    division-free route handles."""
    rows = []
    for i in range(n + 1):
        row = [lift(moments[i + j]) for j in range(n)]
        row.append(Polynomial.monomial("x", i))
        rows.append(row)
    return det_cofactor(rows, one=Polynomial.one())


def test_bordered_determinant_oracle_rational():
    moments = terms("catalan", 8)
    data = fit_spec("catalan", 4)

    def lift(value):
        return Polynomial.constant(value)

    for n in range(5):
        bordered = _bordered_poly(moments, n, lift)
        det0 = det_exact(hankel_matrix("catalan", n))
        assert bordered == poly_from_recurrence(data, n) * det0


def test_bordered_determinant_oracle_polynomial():
    moments = terms("narayana", 8)
    data = fit_spec("narayana", 4)

    def lift(value):
        return Polynomial.constant(RationalFunction(value))

    for n in range(5):
        bordered = _bordered_poly(moments, n, lift)
        det0 = det_exact(hankel_matrix("narayana", n))
        assert bordered == poly_from_recurrence(data, n) * RationalFunction(det0)


def test_aerated_triangle_counts():
    # weights r, 1, 1, ... give convolution numbers at weight 1 and
    # binomial counts at weight 2
    for r, check in ((1, lambda n, k: catalan_convolution(n, k + 1)),
                     (2, lambda n, k: Fraction(binomial(2 * n + k, n)))):
        weights = [Fraction(r)] + [Fraction(1)] * 29
        tri = aerated_triangle(weights, 31)
        for n in range(11):
            for k in range(11):
                assert tri.entry(2 * n + k, k) == check(n, k)


def test_aerated_triangle_parity_zeros():
    weights = [Fraction(1)] * 10
    tri = aerated_triangle(weights, 10)
    for n in range(10):
        for k in range(10):
            if (n + k) % 2 == 1:
                assert tri.entry(n, k) == 0


def test_aeration_collapse_matches_direct_fit():
    for spec in ("catalan", "u:r=3", "catalan|double-signed"):
        aerated = fit_spec(f"{spec}|aerate", 8)
        assert all(not v for v in aerated.s)
        collapsed = aeration_collapse(list(aerated.t))
        direct = fit_spec(spec, 4)
        assert list(collapsed.s) == list(direct.s)[: len(collapsed.s)]
        assert list(collapsed.t) == list(direct.t)[: len(collapsed.t)]


# Edge cases pinned by type as well as value: a value shows as
# "<kind>:<str>" with Z int, Q Fraction, P Polynomial, R RationalFunction.
_KIND = {int: "Z", Fraction: "Q", Polynomial: "P", RationalFunction: "R"}


def _shown(values) -> list:
    return [f"{_KIND[type(v)]}:{v}" for v in values]


_T = Polynomial.variable_poly("t")


@pytest.mark.parametrize(("weights", "s", "t"), [
    ([], [], []),
    ([1], ["Z:1"], []),
    ([_T, _T], ["P:t"], []),
    ([1, 2, 3, 4, 5], ["Z:1", "Z:5", "Z:9"], ["Z:2", "Z:12"]),
    ([RationalFunction(1, 1 + _T)] * 3,
     ["R:1 / (1 + t)", "R:2 / (1 + t)"], ["R:1 / (1 + 2*t + t^2)"]),
])
def test_aeration_collapse_edge_cases(weights, s, t):
    data = aeration_collapse(weights)
    assert (_shown(data.s), _shown(data.t)) == (s, t)


@pytest.mark.parametrize(("spec", "dets", "rows"), [
    ("catalan", ["Q:1"] * 6, [
        ["Q:1"],
        ["Q:1", "Q:1"],
        ["Q:2", "Q:3", "Q:1"],
        ["Q:5", "Q:9", "Q:5", "Q:1"],
        ["Q:14", "Q:28", "Q:20", "Q:7", "Q:1"],
    ]),
    ("catalan|double-signed", ["Q:1", "Q:1", "Q:1", "Q:-2", "Q:-3", "Q:5"], [
        ["Q:1"],
        ["Q:-1", "Q:1"],
        ["Q:-1", "Q:-1/2", "Q:1"],
        ["Q:2", "Q:-2", "Q:-2/3", "Q:1"],
        ["Q:2", "Q:3/2", "Q:-3", "Q:-3/5", "Q:1"],
    ]),
    ("narayana", ["R:1", "R:1", "R:1", "R:t", "R:t^3", "R:t^6"], [
        ["Q:1"],
        ["R:1", "Q:1"],
        ["R:1 + t", "R:2 + t", "Q:1"],
        ["R:1 + 3*t + t^2", "R:3 + 5*t + t^2", "R:3 + 2*t", "Q:1"],
        ["R:1 + 6*t + 6*t^2 + t^3", "R:4 + 14*t + 9*t^2 + t^3",
         "R:6 + 11*t + 3*t^2", "R:4 + 3*t", "Q:1"],
    ]),
    ("narayana-b", ["R:1", "R:1", "R:1", "R:2*t", "R:4*t^3", "R:8*t^6"], [
        ["Q:1"],
        ["R:1 + t", "Q:1"],
        ["R:1 + 4*t + t^2", "R:2 + 2*t", "Q:1"],
        ["R:1 + 9*t + 9*t^2 + t^3", "R:3 + 9*t + 3*t^2", "R:3 + 3*t", "Q:1"],
        ["R:1 + 16*t + 36*t^2 + 16*t^3 + t^4", "R:4 + 24*t + 24*t^2 + 4*t^3",
         "R:6 + 16*t + 6*t^2", "R:4 + 4*t", "Q:1"],
    ]),
    ("convpoly:m=4", ["R:1", "R:1", "R:1", "R:-1 - t^2", "R:-t^2 - t^4",
                      "R:t^4 + t^6 + t^8"], [
        ["Q:1"],
        ["R:2 + 2*t", "Q:1"],
        ["R:3 + 8*t + 3*t^2", "R:2 + 2*t", "Q:1"],
        ["R:4 + 20*t + 20*t^2 + 4*t^3",
         "R:(3 + 8*t + 5*t^2 + 8*t^3 + 3*t^4) / (1 + t^2)", "R:4 + 4*t", "Q:1"],
        ["R:5 + 40*t + 75*t^2 + 40*t^3 + 5*t^4",
         "R:(4 + 20*t + 20*t^2 + 20*t^3 + 20*t^4 + 4*t^5) / (1 + t^2)",
         "R:10 + 24*t + 10*t^2", "R:4 + 4*t", "Q:1"],
    ]),
])
def test_fitted_recurrence_edge_values(spec, dets, rows):
    # det_product_formula at n = -1..4, the depth-4 triangle and the
    # eight moments that depth determines: a(0) is the seed Fraction 1,
    # the rest share the fit's kind and equal the spec's terms.
    data = fit_spec(spec, 4)
    assert _shown(det_product_formula(data, n) for n in range(-1, 5)) == dets
    assert [_shown(row) for row in triangle(data, 5).rows] == rows
    kind = dets[0][0]  # Q for a rational fit, R for a polynomial one
    want = ["Q:1"] + [f"{kind}:{a}" for a in terms(spec, 8)[1:]]
    assert _shown(moments_from_recurrence(data, 8)) == want


@pytest.mark.parametrize(("weights", "rows"), [
    ([1, 2, 3, 4], [
        ["Q:1"], ["Q:0", "Q:1"], ["Q:1", "Q:0", "Q:1"],
        ["Q:0", "Q:3", "Q:0", "Q:1"], ["Q:3", "Q:0", "Q:6", "Q:0", "Q:1"],
    ]),
    ([Fraction(1, 2)] * 4, [
        ["Q:1"], ["Q:0", "Q:1"], ["Q:1/2", "Q:0", "Q:1"],
        ["Q:0", "Q:1", "Q:0", "Q:1"], ["Q:1/2", "Q:0", "Q:3/2", "Q:0", "Q:1"],
    ]),
    ([_T, _T + 1, _T, 1], [
        ["Q:1"], ["Q:0", "Q:1"], ["P:t", "Q:0", "Q:1"],
        ["P:0", "P:1 + 2*t", "Q:0", "Q:1"],
        ["P:t + 2*t^2", "P:0", "P:1 + 3*t", "Q:0", "Q:1"],
    ]),
    ([RationalFunction(1, 1 + _T)] * 4, [
        ["Q:1"], ["Q:0", "Q:1"], ["R:1 / (1 + t)", "Q:0", "Q:1"],
        ["R:0", "R:2 / (1 + t)", "Q:0", "Q:1"],
        ["R:2 / (1 + 2*t + t^2)", "R:0", "R:3 / (1 + t)", "Q:0", "Q:1"],
    ]),
])
def test_aerated_triangle_edge_values(weights, rows):
    assert [_shown(row) for row in aerated_triangle(weights, 5).rows] == rows


@pytest.mark.parametrize(("moments", "poly", "want"), [
    ([1], Polynomial.zero(), "Q:0"),
    ([1, 2, 3], Polynomial.parse("1 + t^2"), "Q:4"),
    ([1, _T, _T * _T], _T * _T + 2, "P:2 + t^2"),
    ([RationalFunction(1), RationalFunction(_T, 1 + _T)], 3 * _T + 1,
     "R:(1 + 4*t) / (1 + t)"),
])
def test_moment_functional_edge_values(moments, poly, want):
    assert _shown([moment_functional(moments, poly)]) == [want]


def test_aerated_polynomials_fibonacci_form():
    # with weights r, 1, 1, ... the recurrence polynomials combine two
    # Fibonacci polynomials with s = -1
    x = Polynomial.variable_poly("x")
    minus = Fraction(-1)
    for r in range(1, 6):
        data = JacobiData(
            (Fraction(0),) * 11,
            tuple([Fraction(r)] + [Fraction(1)] * 9),
        )
        assert poly_from_recurrence(data, 0) == Polynomial.one()
        for n in range(1, 11):
            expected = fibonacci_poly(n + 1, x, minus)
            expected = expected + (1 - r) * fibonacci_poly(n - 1, x, minus)
            assert poly_from_recurrence(data, n, var="x") == expected


def test_pencil_identity_on_catalan():
    moments = terms("catalan", 10)
    for n in range(5):
        for point in (Fraction(0), Fraction(1), Fraction(7), Fraction(-3, 2)):
            check = pencil_identity_check(moments, n, point)
            assert check.matches
            assert check.order == n


def test_pencil_identity_on_polynomial_moments():
    moments = terms("narayana-b", 12)
    for n in range(6):
        check = pencil_identity_check(moments, n, Fraction(-1))
        assert check.matches
        # x0 = -1 folds the pencil into a sign times the consecutive sum
        combined = det_cofactor(hankel_matrix("narayana-b|consecutive-sum", n))
        sign = 1 if n % 2 == 0 else -1
        assert check.lhs == sign * combined


def test_pencil_identity_needs_enough_moments():
    with pytest.raises(ValueError):
        pencil_identity_check(terms("catalan", 3), 2, Fraction(1))


def test_pencil_identity_at_order_zero(monkeypatch):
    # The fit reads a(0) even at n = 0, so the check asks for one moment
    # and takes the ring unit from it.
    check = pencil_identity_check([Polynomial.one()], 0, Fraction(0))
    empty = det_exact(hankel_matrix("narayana", 0))
    assert check.matches
    assert [(type(v), v) for v in (check.lhs, check.rhs)] == [(Polynomial, empty)] * 2
    # Both sides are 1 in the ring of a(0), as they are at order >= 1.
    cases = [([RationalFunction(1)], RationalFunction), ([1], Fraction),
             ([Fraction(1)], Fraction)]
    for moments, kind in cases:
        check = pencil_identity_check(moments, 0, Fraction(0))
        assert check.matches
        assert [type(check.lhs), type(check.rhs)] == [kind, kind]

    def no_fit(*args):
        raise AssertionError("the guard should refuse before the fit runs")

    monkeypatch.setattr(orthopoly, "fit_recurrence", no_fit)
    with pytest.raises(ValueError, match="need 1 moments, got 0"):
        pencil_identity_check([], 0, Fraction(0))


def test_jacobi_data_serialization():
    data = fit_spec("catalan|shift:1", 3)
    assert data.csv_text().splitlines()[0] == "k,s,t"
    assert '"s"' in data.json_text()
    parsed_back = [RationalFunction.parse(s) for s in __import__("json").loads(data.json_text())["s"]]
    assert parsed_back == list(data.s)
