"""Differential property over the spec grammar: every Hankel determinant
the package computes comes from the fraction-free Chebyshev rows (in
`det_sequence`) or the elimination kernel (in `det_exact`), so it is held
to two oracles that share no code with either, the Bareiss elimination
with row exchanges in `oracles.py` and cofactor expansion.

Specs are a family with up to two transforms.  The explicit examples pin
specs with vanishing minors, which drive the rows' step over zero minors,
the elimination's zero pivots and the fit's zero-minor exit.

Every family, at offsets 0 and 1, is also held to determinants mod the
prime 2^61 - 1 (`oracles.modular_dets`) up to order 40, or 20 for a
polynomial family, at points t0 the derandomized profile draws; the
oracle first has to find a one-coefficient error planted in one minor.

The recurrence fit is held to the same determinants: where every minor up
to the depth is nonzero it rebuilds the moments, and its product formula
and shifted determinant give `det_sequence`'s values; otherwise it names
the first vanishing order.  Where the fit exists, the moment pencil
det(a(i+j) x0 - a(i+j+1)) equals the Hankel determinant times the fitted
polynomial's value at x0.

Every drawn spec also survives a round trip through its text, and with up
to three transforms its terms are the prefix of a longer run of them.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hankelab.exactnum import Polynomial
from hankelab.hankel import det_cofactor, det_exact, det_sequence, hankel_matrix
from hankelab.orthopoly import (
    ZeroHankelMinorError,
    det_product_formula,
    fit_spec,
    moments_from_recurrence,
    pencil_identity_check,
    shifted_det,
)
from hankelab.sequences import POLYNOMIAL, parse_spec, terms
from oracles import bareiss_det, modular_dets, residue

FAMILIES = st.one_of(
    st.sampled_from(["catalan", "central-binomial", "narayana", "narayana-b"]),
    st.integers(1, 5).map("catconv:r={}".format),
    st.integers(1, 3).map("u:r={}".format),
    st.integers(1, 3).map("f-number:r={}".format),
    st.integers(1, 4).map("convpoly:m={}".format),
)
RATIOS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
ARGUMENTS = {
    "shift": st.integers(0, 2).map("shift:{}".format),
    "scale": RATIOS.filter(bool).map("scale:{}".format),
    "eval": RATIOS.map("eval:t={}".format),
}
TRANSFORMS = ["double-signed", "aerate", "consecutive-sum", "shift", "scale"]


@st.composite
def cases(draw, most=2):
    """(spec, n, offset): a family and up to `most` transforms; n <= 6 for
    rational specs, n <= 4 for polynomial."""
    text = draw(FAMILIES)
    polynomial = parse_spec(text).kind == POLYNOMIAL
    for _ in range(draw(st.integers(0, most))):
        name = draw(st.sampled_from(TRANSFORMS + ["eval" if polynomial else "abs"]))
        polynomial = polynomial and name != "eval"
        text += "|" + (draw(ARGUMENTS[name]) if name in ARGUMENTS else name)
    n = draw(st.integers(0, 4 if polynomial else 6))
    return text, n, draw(st.integers(0, 1))


def _typed(values):
    return [(type(v), str(v)) for v in values]


@given(cases())
@example(("catconv:r=3", 6, 0))
@example(("catalan|aerate", 6, 1))
@example(("narayana|aerate", 4, 0))
def test_every_determinant_matches_the_oracles(case):
    spec, n, offset = case
    one = Polynomial.one() if parse_spec(spec).kind == POLYNOMIAL else Fraction(1)
    values = det_sequence(spec, n, offset).values
    rows = hankel_matrix(spec, n, offset).rows
    blocks = [[row[:k] for row in rows[:k]] for k in range(n + 1)]
    assert _typed(values) == _typed(bareiss_det(block, one) for block in blocks)
    for k in range(min(n, 4) + 1):
        assert values[k] == det_cofactor(blocks[k], one), (spec, k)
    assert _typed([det_exact(hankel_matrix(spec, n, offset))]) == _typed(values[-1:])


@given(cases())
@example(("catconv:r=3", 6, 0))
@example(("narayana", 4, 0))
@example(("narayana|aerate|aerate", 4, 0))
def test_every_fit_matches_the_determinants(case):
    spec, n, _ = case
    assume(terms(spec, 1)[0] == 1)
    dets = det_sequence(spec, n).values
    try:
        jd = fit_spec(spec, n)
    except ZeroHankelMinorError as err:
        assert err.order == next(k for k, d in enumerate(dets) if d == 0)
        return
    assert moments_from_recurrence(jd, 2 * n) == terms(spec, 2 * n)
    shifted = det_sequence(spec, n, 1).values
    for k in range(n + 1):
        assert det_product_formula(jd, k) == dets[k], (spec, k)
        assert shifted_det(jd, k, dets[k]) == shifted[k], (spec, k)


@given(cases())
@example(("catalan|double-signed", 6, 0))
@example(("narayana|aerate", 4, 0))
def test_the_pencil_identity_holds_where_the_fit_exists(case):
    spec, n, _ = case
    assume(terms(spec, 1)[0] == 1)
    n = min(n, 5)
    # The fit reads a(0) even at n = 0, as in `fit_spec`.
    moments = terms(spec, max(2 * n, 1))
    for x0 in (Fraction(0), Fraction(1), Fraction(-1, 2)):
        try:
            check = pencil_identity_check(moments, n, x0)
        except ZeroHankelMinorError:
            return
        assert check.matches, (spec, n, x0)


@given(cases())
@example(("narayana|eval:t=-1/3|scale:2/3", 0, 0))
def test_spec_text_round_trips(case):
    spec = parse_spec(case[0])
    again = parse_spec(str(spec))
    assert again == spec
    assert str(again) == str(spec) == spec.text


@given(cases(3))
def test_terms_are_prefixes_of_longer_runs(case):
    spec, n, _ = case
    assert _typed(terms(spec, n)) == _typed(terms(spec, n + 3)[:n])


PRIME = 2**61 - 1
POINTS = st.integers(1, PRIME - 1)
# Every family; catconv:r=3 and r=5, fibonacci (a(0) = 0), lucas and
# f-number, and the aerated specs at offset 1 have vanishing minors.  The
# twice-aerated specs have runs of 2 to 5 of them, over Z and Z[t].
MODULAR_SPECS = [
    "catalan", "central-binomial", "catconv:r=3", "catconv:r=5", "u:r=3",
    "u:r=3|double-signed", "fibonacci", "lucas", "f-number:r=2",
    "catalan|double-signed|aerate", "catalan|scale:1/3",
    "narayana", "narayana-b", "convpoly:m=4", "narayana|aerate",
    "catconv:r=3|aerate|aerate", "catalan|aerate|aerate", "narayana|aerate|aerate",
]


@functools.cache
def _modular_case(spec, offset):
    """det_sequence's values and the Hankel rows at the oracle's order."""
    n = 20 if parse_spec(spec).kind == POLYNOMIAL else 40
    return det_sequence(spec, n, offset).values, hankel_matrix(spec, n, offset).rows


def _mismatches(values, rows, point):
    oracle = modular_dets(rows, PRIME, point)
    return [n for n, value in enumerate(values) if residue(value, PRIME, point) != oracle[n]]


@settings(max_examples=20)
@given(st.sampled_from([("narayana", 0), ("catconv:r=5", 0), ("catalan", 1),
                        ("catconv:r=3|aerate|aerate", 0)]), POINTS,
       st.data())
def test_the_modular_oracle_finds_a_planted_one_coefficient_error(case, point, data):
    values, rows = _modular_case(*case)
    n = data.draw(st.integers(1, len(values) - 1))
    wrong = list(values)
    if isinstance(wrong[n], Polynomial):
        j = data.draw(st.integers(0, wrong[n].degree))
        wrong[n] = wrong[n] + Polynomial.monomial("t", j)
    else:
        wrong[n] = wrong[n] + 1
    assert _mismatches(wrong, rows, point) == [n]


@pytest.mark.parametrize("offset", [0, 1])
@pytest.mark.parametrize("spec", MODULAR_SPECS)
@settings(max_examples=5)
@given(point=POINTS)
def test_every_family_matches_the_modular_oracle(spec, offset, point):
    values, rows = _modular_case(spec, offset)
    assert _mismatches(values, rows, point) == []
