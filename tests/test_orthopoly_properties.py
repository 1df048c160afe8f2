"""Differential properties of recurrence fitting over Q.

Rational moments are fitted on integer bordered Hankel minors.  These
properties hold that kernel to Chebyshev's moment algorithm run one
`Fraction` at a time, written out here as the oracle, on s, t and the
order of the first vanishing minor.  Polynomial moments are fitted with
rows that stay polynomials while s and t are; that loop is held to
`oracles.field_fit`, the same algorithm on `RationalFunction`s
throughout, in value and type.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hankelab.orthopoly import (
    JacobiData,
    ZeroHankelMinorError,
    fit_recurrence,
    fit_spec,
    moments_from_recurrence,
)
from hankelab.sequences import terms
from oracles import field_fit

# Small numerators over small denominators make vanishing minors common;
# moments built from recurrence data with some t(j) = 0 have H_(j+2) = 0
# however deep j is.
VALUES = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
)
DEPTHS = st.integers(1, 8)
DRAWN = DEPTHS.flatmap(
    lambda depth: st.lists(VALUES, min_size=2 * depth - 1, max_size=2 * depth - 1)
).map(lambda tail: [Fraction(1)] + tail)
FROM_RECURRENCE = DEPTHS.flatmap(
    lambda depth: st.builds(
        JacobiData,
        st.lists(VALUES, min_size=depth, max_size=depth).map(tuple),
        st.lists(VALUES, min_size=depth - 1, max_size=depth - 1).map(tuple),
    )
).map(lambda jd: moments_from_recurrence(jd, 2 * jd.depth))
MOMENT_LISTS = st.one_of(DRAWN, FROM_RECURRENCE)


def sigma_fit(moments, depth):
    """s and t by Chebyshev's moment algorithm over Q.

    sigma[k][l] is the functional applied to p(k, x) * x^l; raises
    ZeroHankelMinorError at the first vanishing leading minor.
    """
    width = 2 * depth
    sigma = [[Fraction(m) for m in moments[:width]]]
    s = [sigma[0][1] / sigma[0][0]]
    t = []
    for k in range(1, depth):
        prev = sigma[k - 1]
        row = [None] * (width - k)
        for l in range(k, width - k):
            value = prev[l + 1] - s[k - 1] * prev[l]
            if k >= 2:
                value = value - t[k - 2] * sigma[k - 2][l]
            row[l] = value
        sigma.append(row)
        if not row[k]:
            raise ZeroHankelMinorError(k + 1)
        t.append(row[k] / prev[k - 1])
        s.append(row[k + 1] / row[k] - prev[k] / prev[k - 1])
    return s, t


def outcome(fit, moments, depth):
    try:
        return fit(moments, depth)
    except ZeroHankelMinorError as error:
        return error.order


@given(MOMENT_LISTS)
def test_fit_matches_the_fraction_oracle(moments):
    depth = len(moments) // 2
    expected = outcome(sigma_fit, moments, depth)
    got = outcome(fit_recurrence, moments, depth)
    if isinstance(expected, int):
        assert got == expected
        return
    assert (list(got.s), list(got.t)) == expected
    assert all(type(v) is Fraction for v in got.s + got.t)
    assert moments_from_recurrence(got, len(moments)) == moments


def test_oracle_sees_zero_minors_at_several_orders():
    # 1, 1, 1, 1 has H_2 = 0; 1, 0, 1, 0, 1, 0 has H_3 = 0.
    for moments, order in (([1, 1, 1, 1], 2), ([1, 0, 1, 0, 1, 0], 3)):
        assert outcome(sigma_fit, moments, len(moments) // 2) == order
        assert outcome(fit_recurrence, moments, len(moments) // 2) == order


def _typed(values) -> list:
    return [(type(v), str(v)) for v in values]


# s and t are polynomials for the Narayana specs, and for convpoly:m=4,
# whose s(k) is 0 at odd k; convpoly:m=5 has true rational functions, so
# its rows become `RationalFunction`s after the first.  Its fit costs
# about 17 s at depth 20 either way, so it stops at depth 10.
@pytest.mark.parametrize("spec, deep", [("narayana", 20), ("narayana-b", 20),
                                        ("narayana|aerate", 20), ("convpoly:m=4", 20),
                                        ("convpoly:m=5", 10)])
def test_the_polynomial_row_fit_matches_the_rational_function_loop(spec, deep):
    for depth in (0, 1, 2, deep):
        fitted = fit_spec(spec, depth)
        s, t = field_fit(terms(spec, 2 * depth)) if depth else ((), ())
        assert (fitted.s, fitted.t) == (tuple(s), tuple(t)), (spec, depth)
        assert _typed(fitted.s) == _typed(s) and _typed(fitted.t) == _typed(t)
