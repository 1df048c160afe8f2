"""The Chebyshev rows, which step over runs of vanishing minors, and
`det_sequence`, which clears its moment list once and reads them with no
elimination; the elimination kernel `_det` and `det_exact` on top of it;
all against the cofactor and Bareiss oracles; the ring of a zero in rows
that mix numbers and symbolic entries; plus matrix shape and
serialization checks."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from hankelab.exactnum import Polynomial, RationalFunction, exact_divide
from hankelab.hankel import (
    _chebyshev_rows,
    _cleared,
    _det,
    csv_cell,
    csv_table,
    det_cofactor,
    det_exact,
    det_sequence,
    hankel_matrix,
    json_table,
)
from hankelab.orthopoly import fit_spec
from hankelab.sequences import (
    POLYNOMIAL, SequenceSpec, SpecError, Transform, parse_spec, terms,
)
from oracles import bareiss_det


def _random_int_rows(rng: random.Random, order: int) -> list:
    return [
        [Fraction(rng.randint(-9, 9)) for _ in range(order)]
        for _ in range(order)
    ]


def _random_poly_rows(rng: random.Random, order: int) -> list:
    def cell():
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        return Polynomial(coeffs, "t")

    return [[cell() for _ in range(order)] for _ in range(order)]


# Sparse entries make about a third of the minors vanish, often several in
# a row, so the rows' step over zero minors and the elimination's zero
# pivots run on most draws.
SPARSE_INTS = (-1, 0, 0, 0, 1, 2)
_T = Polynomial.variable_poly("t")
SPARSE_POLYS = tuple(Polynomial.constant(c) for c in (-1, 0, 0, 0)) + (_T, _T + 1)
POOLS = pytest.mark.parametrize("pool, one, trials, max_order", [
    (SPARSE_INTS, 1, 300, 9),
    (SPARSE_POLYS, Polynomial.one(), 40, 7),
], ids=["int", "polynomial"])


@POOLS
def test_chebyshev_rows_match_per_order_oracles(pool, one, trials, max_order):
    # Odd widths are det_sequence's, even ones the fit's.
    rng = random.Random(f"rows:{max_order}")
    minors_seen = zeros_seen = 0
    for _ in range(trials):
        seq = [rng.choice(pool) for _ in range(rng.randint(1, 2 * max_order))]
        minors = [row[0] for row in _chebyshev_rows(seq)]
        assert len(minors) == (len(seq) + 1) // 2
        for n, value in enumerate(minors, 1):
            block = [seq[i:i + n] for i in range(n)]
            expected = bareiss_det(block, one)
            assert value == expected, (seq, n)
            assert type(value) is type(expected), (seq, n)
            if n <= 5:
                assert value == det_cofactor(block, one), (seq, n)
        minors_seen += len(minors)
        zeros_seen += sum(1 for value in minors if not value)
    assert zeros_seen > minors_seen // 5


@POOLS
def test_det_matches_the_oracle(pool, one, trials, max_order):
    rng = random.Random(f"det:{max_order}")
    zeros_seen = 0
    for _ in range(trials):
        order = rng.randint(1, max_order)
        rows = [[rng.choice(pool) for _ in range(order)] for _ in range(order)]
        value, expected = _det(rows), bareiss_det(rows, one)
        assert value == expected, rows
        assert type(value) is type(expected), rows
        if order <= 5:
            assert value == det_cofactor(rows, one), rows
        zeros_seen += not value
    assert zeros_seen > trials // 5


@pytest.mark.parametrize("spec, n_max, offset", [
    ("catconv:r=3", 16, 0),
    ("catconv:r=5", 16, 0),
    ("catalan|double-signed|aerate", 16, 1),
    ("catalan|scale:1/3", 12, 0),
    ("narayana|eval:t=1/2", 12, 0),
    ("narayana", 7, 0),
])
def test_det_sequence_matches_per_order_det_exact(spec, n_max, offset):
    one = Polynomial.one() if parse_spec(spec).kind == POLYNOMIAL else Fraction(1)
    got = det_sequence(spec, n_max, offset).values
    expected = [
        bareiss_det(hankel_matrix(spec, n, offset).rows, one)
        for n in range(n_max + 1)
    ]
    assert [(type(v), str(v)) for v in got] == [(type(v), str(v)) for v in expected]


def test_empty_determinant_is_one():
    assert det_exact([]) == 1
    assert det_exact(hankel_matrix("catalan", 0)) == Fraction(1)
    poly_one = det_exact(hankel_matrix("narayana", 0))
    assert poly_one == Polynomial.one()


@pytest.mark.parametrize("det", [det_exact, det_cofactor])
@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 2], [3, 4, 5]], [[1, 2], [3]]])
def test_determinants_refuse_a_non_square_matrix(det, rows):
    with pytest.raises(ValueError, match="matrix must be square"):
        det(rows)


@pytest.mark.parametrize("det", [det_exact, det_cofactor])
@pytest.mark.parametrize("rows", [
    [[1e20, 1.0], [1.0, 1.0]],
    [[0.1, 0.2], [0.3, 0.4]],
    [[Fraction(1), 2], [3, 4.0]],
])
def test_determinants_refuse_an_inexact_entry(det, rows):
    # A float would give a rounded answer: 1e20 for the first matrix,
    # whose exact determinant is 99999999999999999999.
    with pytest.raises(TypeError, match="inexact matrix entry"):
        det(rows)


def test_rational_function_entries_match_cofactor():
    t = Polynomial.variable_poly("t")
    rows = [[RationalFunction(1, t + i + j + 1) for j in range(3)] for i in range(3)]
    value = det_exact(rows)
    assert type(value) is RationalFunction and value == det_cofactor(rows)


def test_two_by_two_integer_example():
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(2)]]
    assert det_exact(rows) == 1
    assert det_cofactor(rows) == 1


def test_integer_rows_give_fractions_at_every_order():
    rows = [[1, 2, 0], [3, 4, 1], [0, 2, 5]]
    minors = [det_exact([row[:n] for row in rows[:n]]) for n in (1, 2, 3)]
    assert [type(d) for d in minors] == [Fraction] * 3
    assert minors == [1, -2, det_cofactor(rows)] == [1, -2, -12]
    for matrix, value in (([[5]], 5), ([[1, 2], [3, 4]], -2)):
        det = det_exact(matrix)
        assert type(det) is Fraction and det == value


def test_two_by_two_polynomial_example():
    dets = det_sequence("narayana|shift:1|consecutive-sum", 2)
    assert dets[2] == Polynomial.parse("4*t + 3*t^2 + t^3")


def test_row_swap_pivoting():
    rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert det_exact(rows) == -1
    rows3 = [
        [Fraction(0), Fraction(0), Fraction(2)],
        [Fraction(0), Fraction(3), Fraction(0)],
        [Fraction(5), Fraction(0), Fraction(0)],
    ]
    assert det_exact(rows3) == det_cofactor(rows3) == -30


def test_singular_matrices_give_zero():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det_exact(rows) == 0
    t = Polynomial.variable_poly("t")
    prows = [[t, t], [t, t]]
    assert det_exact(prows, one=Polynomial.one()) == Polynomial.zero()
    # Without `one`, the zero's ring comes from the entries.
    zero = Polynomial.zero()
    for rows in (prows, [[zero, t], [zero, t]], [[t, t, 1 + t], [t, t, t], [t, t, 1 + t]]):
        for det in (det_exact, det_cofactor):
            value = det(rows)
            assert type(value) is Polynomial and value == zero, (det, rows)
    # Rows that mix numbers and polynomials: the zero is still a
    # Polynomial, also when the kernel meets a column of numbers.
    for rows in ([[0, t], [0, t]], [[0, 0], [0, t]],
                 [[1, Fraction(0), t], [1, 0, 0], [0, 0, t]]):
        for det in (det_exact, det_cofactor):
            value = det(rows)
            assert type(value) is Polynomial and value == zero, (det, rows)
    # With a rational function among the entries, numbers take its ring,
    # `RationalFunction` before `Polynomial`.
    r = RationalFunction(1, t)
    for rows in ([[0, r], [0, r]], [[0, 0], [0, r]],
                 [[1, 0, r], [1, 0, 0], [0, 0, r]], [[0, t], [0, r]]):
        value, expected = det_exact(rows), det_cofactor(rows)
        assert value == expected == 0, rows
        assert type(value) is type(expected) is RationalFunction, rows


def test_elimination_never_divides_by_a_unit_pivot(monkeypatch):
    # Every first step, and each step after a pivot of 1, keeps its cross
    # products as they are.
    divisors = []

    def recording(value, divisor):
        divisors.append(divisor)
        return exact_divide(value, divisor)

    monkeypatch.setattr("hankelab.hankel.exact_divide", recording)
    for run in (lambda: det_sequence("catalan", 12), lambda: det_sequence("narayana", 6),
                lambda: det_sequence("catconv:r=5", 12),
                lambda: det_exact(hankel_matrix("catconv:r=5", 12))):
        divisors.clear()
        run()
        assert not any(d == 1 for d in divisors)
    assert divisors  # det_exact eliminates, and divides by pivots that are not 1


def test_the_chebyshev_rows_skip_each_unit_divisor(monkeypatch):
    # The catalan minors are all 1, so no row divides; the double-signed
    # minors are not, so the skip is decided per row.
    calls = []

    def counting(value, divisor):
        calls.append(divisor)
        return exact_divide(value, divisor)

    monkeypatch.setattr("hankelab.hankel.exact_divide", counting)
    for run, count in ((lambda: det_sequence("catalan", 40), 0),
                       (lambda: fit_spec("catalan", 20), 0),
                       (lambda: det_sequence("catalan|double-signed", 32), 841)):
        calls.clear()
        run()
        assert len(calls) == count
        assert 1 not in calls


def test_the_chebyshev_rows_multiply_by_no_zero(monkeypatch):
    # x^w enters the first row step as its leading 1 alone, so no product
    # takes one of its zeros, at gap 1 (a(0) != 0) or past a run of zero
    # minors (a(0) = 0).  These moments give rows with no other zero entry
    # and no zero step coefficient, so no product has a zero factor.
    products = []
    multiply = Polynomial.__mul__

    def counting(a, b):
        products.append(not a or not b)
        return multiply(a, b)

    cases = [(spec, terms(spec, 39)) for spec in ("narayana", "narayana-b")]
    cases += [("0, narayana", [0] + terms("narayana", 38)),
              ("0, 0, narayana-b", [0, 0] + terms("narayana-b", 37))]
    for name, moments in cases:
        products.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "__mul__", counting)
            patch.setattr(Polynomial, "__rmul__", counting)
            minors = [row[0] for row in _chebyshev_rows(moments)]
        assert len(products) > 900 and not any(products), name
        assert len(minors) == 20, name
        one = Polynomial.constant(1)
        for n in range(1, 9):
            block = [moments[i:i + n] for i in range(n)]
            assert minors[n - 1] == bareiss_det(block, one), (name, n)


def test_det_sequence_never_eliminates(monkeypatch):
    # The Chebyshev rows give every D_n, the zero ones too, so the moments
    # are cleared once and nothing reaches elimination.
    clearings = []

    def refusing(rows):
        raise AssertionError("det_sequence eliminated")

    def counting(*parts):
        clearings.append(len(parts))
        return _cleared(*parts)

    monkeypatch.setattr("hankelab.hankel._det", refusing)
    monkeypatch.setattr("hankelab.hankel._cleared", counting)
    for args in (("catalan", 40), ("catalan|double-signed", 32),
                 ("u:r=3|double-signed", 24), ("narayana", 8), ("convpoly:m=4", 8),
                 ("catconv:r=5", 16), ("catalan|double-signed|aerate", 16, 1),
                 ("catconv:r=3", 120)):
        clearings.clear()
        det_sequence(*args)
        assert clearings == [1], args
    # Single zeros and runs of 2 to 4; a(0) = 0 for fibonacci.
    for spec, n_max, *offset in (("catconv:r=3", 6), ("catconv:r=7", 6),
                                 ("catconv:r=3|aerate|aerate", 7),
                                 ("catalan|aerate|aerate", 7, 1),
                                 ("narayana|aerate|aerate", 5, 1),
                                 ("fibonacci", 6), ("narayana|aerate", 5, 1)):
        values = det_sequence(spec, n_max, *offset).values
        oracle = [det_cofactor(hankel_matrix(spec, n, *offset)) for n in range(n_max + 1)]
        assert [(type(v), str(v)) for v in values] == [(type(v), str(v)) for v in oracle]


def test_bareiss_matches_cofactor_integer_trials():
    rng = random.Random(481297)
    for _ in range(200):
        order = rng.randint(1, 5)
        rows = _random_int_rows(rng, order)
        assert det_exact(rows) == det_cofactor(rows)


def test_bareiss_matches_cofactor_polynomial_trials():
    rng = random.Random(55106)
    one = Polynomial.one()
    for _ in range(50):
        order = rng.randint(1, 4)
        rows = _random_poly_rows(rng, order)
        assert det_exact(rows, one=one) == det_cofactor(rows, one=one)


def test_hankel_matrix_shape_and_symmetry():
    rng = random.Random(2024)
    corpus = [
        "catalan", "central-binomial", "catconv:r=3", "catconv:r=5",
        "u:r=1", "u:r=2", "u:r=3", "catalan|double-signed",
        "catalan|aerate", "narayana", "narayana-b", "convpoly:m=3",
        "convpoly:m=4", "fibonacci", "lucas", "f-number:r=2",
        "narayana|shift:1", "catalan|double-signed|abs",
        "u:r=2|double-signed", "central-binomial|double-signed",
    ]
    assert len(corpus) == 20
    for spec in corpus:
        order = rng.randint(1, 5)
        offset = rng.randint(0, 1)
        matrix = hankel_matrix(spec, order, offset)
        seq = terms(spec, 2 * order - 1 + offset)
        for i in range(order):
            for j in range(order):
                assert matrix.entry(i, j) == matrix.entry(j, i)
                assert matrix.entry(i, j) == seq[i + j + offset]


def test_hankel_matrix_validation():
    with pytest.raises(ValueError):
        hankel_matrix("catalan", -1)
    with pytest.raises(ValueError):
        hankel_matrix("catalan", 2, offset=-1)
    for n_max in (0, 1, 2):
        with pytest.raises(ValueError, match="offset must be >= 0"):
            det_sequence("catalan", n_max, offset=-1)


SPEC_ENTRY_POINTS = [
    lambda spec: terms(spec, 6),
    lambda spec: hankel_matrix(spec, 3).rows,
    lambda spec: det_sequence(spec, 3).values,
    lambda spec: fit_spec(spec, 3).csv_text(),
]


@pytest.mark.parametrize("entry", SPEC_ENTRY_POINTS)
def test_every_spec_entry_point_resolves_a_built_spec_by_parse_spec(entry):
    bad = SequenceSpec("catalan", None, (Transform("shift", None),))
    with pytest.raises(SpecError, match="shift needs an integer argument >= 0"):
        entry(bad)
    with pytest.raises(SpecError, match="does not match its text"):
        entry(SequenceSpec("catalan", None, (Transform("scale", "2"),)))
    built = SequenceSpec("narayana", None, (Transform("shift", 1),))
    assert entry(built) == entry("narayana|shift:1")


def test_det_sequence_first_value_is_ring_one():
    assert det_sequence("catalan", 3).values[0] == Fraction(1)
    assert det_sequence("narayana", 3).values[0] == Polynomial.one()


def test_det_sequence_known_values():
    dets = det_sequence("catalan", 5)
    assert len(dets) == 6
    assert list(dets.values) == [1, 1, 1, 1, 1, 1]
    shifted = det_sequence("catalan", 5, offset=1)
    assert list(shifted.values) == [1, 1, 1, 1, 1, 1]


def test_det_sequence_csv_layout():
    text = det_sequence("catalan", 2).csv_text()
    assert text == "n,value\n0,1\n1,1\n2,1\n"
    poly_text = det_sequence("convpoly:m=3", 2).csv_text()
    lines = poly_text.strip().split("\n")
    assert lines[0] == "n,value"
    assert lines[3] == '2,"-1 + t"'


def test_det_sequence_json_is_string_list():
    payload = json.loads(det_sequence("convpoly:m=3", 3).json_text())
    assert payload == ["1", "1", "-1 + t", "-2*t^2 + t^3"]


def test_csv_cell_quoting_rule():
    assert csv_cell(Fraction(-2, 3)) == "-2/3"
    assert csv_cell(Polynomial.parse("1 + t")) == '"1 + t"'


def test_table_writers():
    rows = [(0, Fraction(1, 2), None), (1, Polynomial.parse("t"), "x")]
    text = csv_table(("k", "s", "t"), rows, ("verdict", "match"))
    assert text == 'k,s,t\n0,1/2,\n1,"t",x\nverdict,match\n'
    assert csv_table(("n", "value"), []) == "n,value\n"
    assert json_table({"s": [], "n": 2}) == '{\n  "s": [],\n  "n": 2\n}\n'
    exact = [Fraction(-1, 2), Polynomial.parse("1 + t"), RationalFunction(1, _T), 3, None]
    assert json_table(exact) == '[\n  "-1/2",\n  "1 + t",\n  "1 / t",\n  3,\n  null\n]\n'
    assert csv_table(("n", "note"), [(1, "sum of 1, 2")]) == 'n,note\n1,"sum of 1, 2"\n'
    assert csv_table(("note",), [('say "x"',), ("a\nb",)]) == 'note\n"say ""x"""\n"a\nb"\n'
