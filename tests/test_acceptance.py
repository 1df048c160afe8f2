"""Acceptance gate: eight criteria, each a single test with exact
comparisons and zero tolerance.  Every criterion prints one line so a
verbose run reads as a checklist."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb

from hankelab.exactnum import Polynomial, PowerSeries, RationalFunction
from hankelab.hankel import det_cofactor, det_exact, det_sequence, hankel_matrix
from hankelab.lattice import dual_sum_closed, dual_sum_total, lgv_bruteforce
from hankelab.orthopoly import (
    det_product_formula,
    fit_recurrence,
    fit_spec,
    moments_from_recurrence,
    shifted_det,
    triangle,
)
from hankelab.registry import (
    _compared,
    _gather_counterexamples,
    binomial_sum_identity,
    binomial_sum_series,
    closed_form,
    scan,
    verify,
)
from hankelab.sequences import (
    catalan_series,
    f_number,
    fibonacci_poly,
    lucas_poly,
    narayana_poly,
    narayana_series,
    q_integer,
    terms,
    u_number,
)
from oracles import (
    conv4_poly_recurrence,
    conv4_recurrence,
    double_signed_u_recurrence,
    shifted_narayana_recurrence,
    type_b_recurrence,
    u_family_recurrence,
)

T = Polynomial.variable_poly("t")
T2 = Polynomial.monomial("t", 2)


def _passed(number: int, name: str) -> None:
    print(f"criterion {number} ({name}): PASS")


# -- criterion 1 -------------------------------------------------------

PRINTED_LISTS = [
    ("catalan|double-signed", 0,
     [1, 1, -2, -3, 5, 8, -13, -21]),
    ("catalan|double-signed", 1,
     [1, -1, -3, 3, 8, -8, -21, 21, 55]),
    ("central-binomial|double-signed", 0,
     [1, 1, -6, -16, 56, 176]),
    ("central-binomial|double-signed", 1,
     [1, -2, -16, 32, 176, -352, -1856]),
    ("catalan|double-signed|aerate", 0,
     [1, 1, -1, 2, 6, 9, -9, 15, 40, 64, -64]),
    ("catalan|double-signed|aerate", 1,
     [1, 0, -1, 0, 9, 0, -9, 0, 64]),
    ("central-binomial|double-signed|aerate", 0,
     [1, 1, -2, 12, 96, 256]),
    ("central-binomial|double-signed|aerate", 1,
     [1, 0, -4, 0, 256, 0, -1024]),
    ("catalan|double-signed|abs", 0,
     [1, 1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0]),
    ("central-binomial|double-signed|abs", 0,
     [1, 1, -2, -8, -8, 16, 64, 64]),
    ("catconv:r=3", 0,
     [1, 1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0, 1]),
    ("catconv:r=4", 0,
     [1, 1, -2, -2, 3, 3, -4, -4, 5]),
    ("catconv:r=5", 0,
     [1, 1, -5, 0, 5, 1, 1, -10, 0, 10]),
    ("catconv:r=6", 0,
     [1, 1, -9, -4, -4, 45, 9, 9, -126]),
    ("catconv:r=7", 0,
     [1, 1, -14, -49, 0, 49, 329]),
    ("catconv:r=8", 0,
     [1, 1, -20, -216, 8, 8, 56, -3284, 27, 27, 2744]),
]


def test_criterion_1_printed_determinant_lists():
    for spec, offset, expected in PRINTED_LISTS:
        dets = det_sequence(spec, len(expected) - 1, offset)
        got = [dets[n] for n in range(len(expected))]
        assert got == [Fraction(v) for v in expected], spec
    _passed(1, "printed determinant lists")


# -- criterion 2 -------------------------------------------------------


def test_criterion_2_polynomial_determinant_identities():
    neg_x = Polynomial((-2, -1), "t")
    neg_s = Polynomial((0, -1), "t")

    dets = det_sequence("narayana|shift:1|consecutive-sum", 6)
    for n in range(7):
        sign = 1 if n % 2 == 0 else -1
        expected = (Polynomial.monomial("t", comb(n, 2), sign)
                    * fibonacci_poly(n + 1, neg_x, neg_s))
        assert dets[n] == expected

    dets = det_sequence("convpoly:m=3", 8)
    for n in range(9):
        assert dets[n] == dual_sum_closed(n)

    exponents = [0, 0, 0, 2, 4, 8, 12, 18, 24, 32]
    heights = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    signs = [1, 1, -1, -1, 1, 1, -1, -1, 1, 1]
    dets = det_sequence("convpoly:m=4", 9)
    for n in range(10):
        expected = (Polynomial.monomial("t", exponents[n], signs[n])
                    * q_integer(heights[n], T2))
        assert dets[n] == expected

    dets = det_sequence("narayana-b|consecutive-sum", 6)
    for n in range(7):
        sign = 1 if n % 2 == 0 else -1
        expected = (Polynomial.monomial("t", comb(n, 2), sign)
                    * lucas_poly(n, neg_x, neg_s) * Fraction(2) ** (n - 1))
        assert dets[n] == expected
    _passed(2, "polynomial determinant identities")


# -- criterion 3 -------------------------------------------------------


def test_criterion_3_parameterized_closed_forms():
    for r in (1, 2, 3):
        assert verify("eq3.6", n_max=10, r=r).verdict == "match"
        assert verify("eq3.7", n_max=10, r=r).verdict == "match"
    for r in (1, 2):
        assert verify("eq3.10", n_max=9, r=r).verdict == "match"
        assert verify("eq3.12", n_max=9, r=r).verdict == "match"
    # r = 1 and r = 2 really are the plain and central-binomial cases
    assert terms("u:r=1", 12) == terms("catalan", 12)
    assert terms("u:r=2", 12) == terms("central-binomial", 12)
    _passed(3, "parameterized closed forms")


# -- criterion 4 -------------------------------------------------------


def _same_prefix(built, fitted):
    assert len(fitted.s) <= len(built.s)
    assert all(a == b for a, b in zip(fitted.s, built.s))
    assert all(a == b for a, b in zip(fitted.t, built.t))


def test_criterion_4_recurrence_fit_equalities():
    depth = 8
    for r in (1, 2, 3):
        _same_prefix(u_family_recurrence(r, depth), fit_spec(f"u:r={r}", depth))
        _same_prefix(double_signed_u_recurrence(r, depth),
                     fit_spec(f"u:r={r}|double-signed", depth))
    _same_prefix(shifted_narayana_recurrence(depth),
                 fit_spec("narayana|shift:1", depth))
    _same_prefix(type_b_recurrence(depth), fit_spec("narayana-b", depth))
    _same_prefix(conv4_recurrence(depth), fit_spec("catconv:r=4", depth))
    _same_prefix(conv4_poly_recurrence(depth), fit_spec("convpoly:m=4", depth))
    _passed(4, "recurrence fit equalities")


# -- criterion 5 -------------------------------------------------------


def test_criterion_5_alternating_binomial_sums():
    # The closed form assumes k >= 1; the k = 0 row matches from n = 1.
    for k in range(1, 7):
        for n in range(k + 11):
            lhs, rhs = binomial_sum_identity(k, n)
            assert lhs == rhs
            if n <= k:
                assert lhs == 0
    for n in range(1, 11):
        lhs, rhs = binomial_sum_identity(0, n)
        assert lhs == rhs
    for k in (1, 2, 3):
        lhs, rhs = binomial_sum_series(k, 12)
        assert lhs == rhs
    _passed(5, "alternating binomial sums")


# -- criterion 6 -------------------------------------------------------


def test_criterion_6_path_family_oracle():
    started = time.perf_counter()
    for n in range(5):
        det = det_exact(hankel_matrix("convpoly:m=3", n))
        assert lgv_bruteforce(n) == det
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    for n in range(1, 11):
        assert dual_sum_total(n) == dual_sum_closed(n)
    _passed(6, "path family oracle")


# -- criterion 7 -------------------------------------------------------


def test_criterion_7_conjecture_regression():
    reports = [
        scan("conj7.2", k_max=3),
        scan("conj7.5", k_max=4),
        scan("conj7.6", n_max=8),
        scan("conj7.7", k_max=3, n_max=2),
    ]
    for report in reports:
        assert report.label == "CONJECTURE"
        assert report.verdict == "match"
        assert report.counterexamples == ()
    # a mismatch must surface as a counterexample record, never silently
    falsified = _compared(3, Fraction(1), Fraction(2), k=2)
    records = _gather_counterexamples("conj7.2", (falsified,))
    assert len(records) == 1
    assert records[0].n == 3 and records[0].k == 2
    assert records[0].expected == 1 and records[0].got == 2
    _passed(7, "conjecture regression")


# -- criterion 8 -------------------------------------------------------

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


def _random_poly(rng, var="t", degree=2):
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, degree + 1))]
    return Polynomial(coeffs, var)


def _ring_axiom_trials():
    rng = random.Random(64040)
    for _ in range(40):
        a, b, c = (_random_poly(rng, degree=3) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert Polynomial.parse(str(a), "t") == a
    for _ in range(40):
        num, den = _random_poly(rng), _random_poly(rng)
        if den == Polynomial.zero():
            continue
        value = RationalFunction(num, den)
        assert RationalFunction.parse(str(value), "t") == value
        if value != 0:
            assert value / value == 1


def _bareiss_oracle_trials():
    rng = random.Random(77250)
    for _ in range(200):
        order = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(order)]
                for _ in range(order)]
        assert det_exact(rows) == det_cofactor(rows)
    one = Polynomial.one()
    for _ in range(50):
        order = rng.randint(1, 5)
        rows = [[_random_poly(rng) for _ in range(order)] for _ in range(order)]
        assert det_exact(rows, one=one) == det_cofactor(rows, one=one)


def _fit_round_trips():
    for spec in FITTABLE:
        moments = terms(spec, 16)
        data = fit_recurrence(moments, 8)
        assert moments_from_recurrence(data, 16) == list(moments)
        tri = triangle(data, 9)
        for n in range(9):
            assert tri.entry(n, 0) == moments[n]
        for n in range(9):
            det0 = det_exact(hankel_matrix(spec, n))
            assert det_product_formula(data, n) == det0
            det1 = det_exact(hankel_matrix(spec, n, 1))
            assert shifted_det(data, n, det0) == det1


def _series_identities():
    order = 32
    series = catalan_series(order)
    assert series == PowerSeries.one(order) + (series * series).shift_up(1).truncate(order)

    order = 24
    nseries = narayana_series(order)
    t_const = PowerSeries.constant(T, order)
    z_c = nseries.shift_up(1).truncate(order)
    z_c2 = (nseries * nseries).shift_up(1).truncate(order)
    assert nseries == PowerSeries.one(order) + z_c - t_const * z_c + t_const * z_c2

    at_minus_one = PowerSeries(
        [narayana_poly(n).evaluate(Fraction(-1)) for n in range(order + 1)])
    folded = catalan_series(order).compose_monomial(-1, 2).truncate(order)
    assert at_minus_one == PowerSeries.one(order) + folded.shift_up(1).truncate(order)

    for r in (1, 2, 3):
        r_const = PowerSeries.constant(r, order)
        numerator = PowerSeries.one(order) - r_const * folded.shift_up(1).truncate(order)
        denominator = PowerSeries.one(order) + r_const * folded.shift_up(2).truncate(order)
        signed = PowerSeries(terms(f"u:r={r}|double-signed", order + 1))
        assert signed * denominator == numerator
        plain = PowerSeries([u_number(n, r) for n in range(order + 1)])
        z_cat = catalan_series(order).shift_up(1).truncate(order)
        gate = PowerSeries.one(order) - PowerSeries.constant(r, order) * z_cat
        assert gate * plain == PowerSeries.one(order)


def _cassini_trials():
    for r in range(1, 6):
        drift = Fraction(r * r + r - 1)
        for k in range(1, 31):
            lhs = f_number(k, r) ** 2 - f_number(k - 1, r) * f_number(k + 1, r)
            assert lhs == (drift if k % 2 == 0 else -drift)


def test_criterion_8_property_suites():
    _ring_axiom_trials()
    _bareiss_oracle_trials()
    _fit_round_trips()
    _series_identities()
    _cassini_trials()
    _passed(8, "property suites")
