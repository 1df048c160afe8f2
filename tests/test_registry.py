"""Formula registry: closed forms, verification reports, conjecture
scans, and the reference recurrence builders."""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import pytest

from hankelab.exactnum import Polynomial, PowerSeries
from hankelab.hankel import det_sequence
from hankelab.orthopoly import aerated_triangle, fit_spec, ortho_value
from hankelab.sequences import terms
from hankelab.registry import (
    Counterexample,
    ReportEntry,
    VerificationReport,
    _cf_even_conv,
    _cf_even_conv_poly,
    _cf_odd_conv,
    _compared,
    _gather_counterexamples,
    binomial_sum_identity,
    binomial_sum_series,
    closed_form,
    formula_ids,
    formula_info,
    scan,
    verify,
)
from oracles import (
    aerated_narayana_recurrence,
    aerated_u_p0,
    aerated_u_weights,
    conv4_poly_recurrence,
    conv4_recurrence,
    double_signed_u_aerated_t,
    double_signed_u_recurrence,
    h_value,
    shifted_catalan_recurrence,
    shifted_narayana_recurrence,
    type_b_recurrence,
    u_family_recurrence,
)

ALL_IDS = formula_ids()


def test_registry_size_and_membership():
    assert len(ALL_IDS) == 31
    for id in ("thm2.1-d0", "eq3.6", "thm4.1", "thm5.2", "conj7.2",
               "conj7.7", "d-n-8"):
        assert id in ALL_IDS


@pytest.mark.parametrize("id", ALL_IDS)
def test_every_id_verifies(id):
    report = verify(id)
    assert report.verdict == "match"
    assert report.id == id
    assert not report.counterexamples


def test_labels():
    for id in ALL_IDS:
        label = formula_info(id).label
        if id.startswith("conj"):
            assert label == "CONJECTURE"
        elif id.startswith("d-n-"):
            assert label == "OBSERVED"
        else:
            assert label == "THEOREM"
    assert sum(formula_info(id).label == "THEOREM" for id in ALL_IDS) == 23


def test_verify_overrides():
    report = verify("thm2.1-d0", n_max=3)
    assert [e.n for e in report.entries] == [0, 1, 2, 3]
    assert report.params == {"n_max": 3}
    report = verify("eq3.6", n_max=5, r=2)
    assert report.params == {"n_max": 5, "r": "2"}
    assert all(e.r == 2 for e in report.entries)


def test_verify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify("nonsense")
    with pytest.raises(ValueError):
        verify("thm2.1-d0", r=2)
    with pytest.raises(ValueError):
        verify("eq3.6", r=0)
    with pytest.raises(ValueError):
        verify("conj7.2", r=1)
    with pytest.raises(ValueError):
        formula_info("nonsense")


# Past the documented domain: the two r values above it, as extra evidence.
PAST_R_DOMAIN = [
    (id, max(formula_info(id).r_domain) + step)
    for id in ALL_IDS if formula_info(id).r_domain is not None
    for step in (1, 2)
]


@pytest.mark.parametrize("id, r", PAST_R_DOMAIN,
                         ids=[f"{id}-r{r}" for id, r in PAST_R_DOMAIN])
def test_verify_past_the_r_domain(id, r):
    report = verify(id, r=r)
    assert report.params["r"] == str(r)
    assert report.verdict == "match"


def test_past_r_domain_covers_every_parameterized_id():
    assert len(PAST_R_DOMAIN) == 16
    assert ("eq3.6", 5) in PAST_R_DOMAIN and ("eq3.12", 4) in PAST_R_DOMAIN


def test_closed_form_spot_values():
    assert [closed_form("thm7.3", n) for n in range(7)] == [1, 1, -2, -2, 3, 3, -4]
    assert closed_form("eq3.6", 2, 2) == -6
    assert closed_form("eq3.6", 3, 1) == -3
    with pytest.raises(ValueError):
        closed_form("conj7.2", 4)
    with pytest.raises(ValueError):
        closed_form("thm7.3", -1)
    with pytest.raises(ValueError, match="eq3.6 needs an r parameter"):
        closed_form("eq3.6", 3)


# Each convolution pattern with, as functions of k: its spec, its period
# and the residues it covers; and the largest k checked.
PATTERNS = {
    "conj7.2": (_cf_odd_conv, lambda k: f"catconv:r={2 * k + 1}",
                lambda k: 2 * k + 1, lambda k: {0, 1, k, k + 1, k + 2}, 4),
    "conj7.5": (_cf_even_conv, lambda k: f"catconv:r={2 * k}",
                lambda k: k, lambda k: {0, 1}, 5),
    "conj7.7": (_cf_even_conv_poly, lambda k: f"convpoly:m={2 * k}",
                lambda k: k, lambda k: {0, 1}, 3),
}
PATTERN_CASES = [
    (id, k) for id, row in PATTERNS.items() for k in range(1, row[-1] + 1)
]


@pytest.mark.parametrize("id, k", PATTERN_CASES,
                         ids=[f"{id}-k{k}" for id, k in PATTERN_CASES])
def test_patterns_hold_over_four_periods(id, k):
    pattern, spec, period, residues, _ = PATTERNS[id]
    top = 4 * period(k) - 1
    dets = det_sequence(spec(k), top)
    covered = [n for n in range(top + 1) if pattern(n, k) is not None]
    wanted = {j for j in residues(k) if j < period(k)}
    assert {n % period(k) for n in covered} == wanted
    assert len(covered) == 4 * len(wanted)
    for n in covered:
        assert pattern(n, k) == dets[n], (spec(k), n)


def test_counterexample_machinery():
    good = _compared(2, Fraction(5), Fraction(5))
    bad = _compared(3, Fraction(1), Fraction(2), k=2)
    assert good.status == "match" and bad.status == "mismatch"
    counter = _gather_counterexamples("made-up", (good, bad))
    assert counter == (
        Counterexample(id="made-up", n=3, k=2, expected=Fraction(1), got=Fraction(2)),
    )
    report = VerificationReport(id="made-up", label="CONJECTURE", params={},
                                entries=(good, bad), counterexamples=counter)
    assert report.verdict == "mismatch"
    assert report.csv_text().endswith("verdict,mismatch\n")


def test_conjecture_scans_hold():
    for id in ("conj7.2", "conj7.5", "conj7.6", "conj7.7"):
        report = scan(id)
        assert report.label == "CONJECTURE"
        assert report.verdict == "match"
        assert report.counterexamples == ()


def test_scan_low_k_records_a_skip():
    report = scan("conj7.5", k_max=1)
    assert report.verdict == "match"
    skipped = [e for e in report.entries if e.status == "skipped"]
    assert len(skipped) == 1
    assert skipped[0].reason == "sum pattern needs k >= 2"


def test_scan_parameter_validation():
    with pytest.raises(ValueError):
        scan("nonsense")
    with pytest.raises(ValueError):
        scan("conj7.2", k_max=0)
    with pytest.raises(ValueError):
        scan("conj7.6", n_max=-1)
    # A parameter the id does not read is an error, not silently ignored.
    with pytest.raises(ValueError, match="takes no k_max"):
        scan("thm7.3", k_max=9)
    with pytest.raises(ValueError, match="takes no k_max"):
        scan("conj7.6", k_max=9)
    with pytest.raises(ValueError, match="takes no n_max"):
        verify("conj7.2", n_max=3)
    with pytest.raises(ValueError, match="takes no n_max"):
        scan("conj7.5", n_max=3)


def test_scan_falls_through_for_plain_ids():
    direct = verify("d-n-5")
    via_scan = scan("d-n-5")
    assert via_scan.label == "OBSERVED"
    assert via_scan.verdict == "match"
    assert via_scan.entries == direct.entries


def test_binomial_sum_identity():
    # The closed form needs k >= 1; the k = 0 row only matches from n = 1.
    for k in range(1, 7):
        for n in range(k + 11):
            lhs, rhs = binomial_sum_identity(k, n)
            assert lhs == rhs
            if n <= k:
                assert lhs == 0
    for n in range(1, 11):
        lhs, rhs = binomial_sum_identity(0, n)
        assert lhs == rhs
    with pytest.raises(ValueError):
        binomial_sum_identity(-1, 0)


def test_binomial_sum_series():
    for k in (1, 2, 3):
        lhs, rhs = binomial_sum_series(k, 12)
        assert isinstance(lhs, PowerSeries)
        assert lhs == rhs
    with pytest.raises(ValueError):
        binomial_sum_series(-1, 3)


def test_h_value_is_signed_constant_term():
    for r in (1, 2, 3):
        jd = fit_spec(f"u:r={r}|double-signed", 11)
        for n in range(11):
            assert h_value(n, r) == (-1) ** n * ortho_value(jd, n, Fraction(0))
    with pytest.raises(ValueError):
        h_value(-1, 1)
    with pytest.raises(ValueError):
        h_value(2, 0)


def test_aerated_u_p0_matches_aerated_fit():
    for r in (1, 2, 3):
        jd = fit_spec(f"u:r={r}|double-signed|aerate", 11)
        assert all(v == 0 for v in jd.s)
        for n in range(11):
            assert aerated_u_p0(n, r) == ortho_value(jd, n, Fraction(0))
    with pytest.raises(ValueError, match="index must be >= 0"):
        aerated_u_p0(-1, 1)
    with pytest.raises(ValueError, match="r must be >= 1"):
        aerated_u_p0(2, 0)
    with pytest.raises(ValueError, match="r must be >= 1"):
        aerated_u_p0(1, 0)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_aeration_weights_give_the_aerated_u_moments(r):
    plain = aerated_triangle(aerated_u_weights(r, 12), 12).column0()
    assert list(plain) == terms(f"u:r={r}|aerate", 12)
    signed = aerated_triangle(double_signed_u_aerated_t(r, 12), 12).column0()
    assert list(signed) == terms(f"u:r={r}|double-signed|aerate", 12)


def _assert_same_recurrence(built, fitted):
    assert len(built.s) >= len(fitted.s)
    for a, b in zip(fitted.s, built.s):
        assert a == b
    for a, b in zip(fitted.t, built.t):
        assert a == b


REFERENCE_BUILDERS = [
    lambda depth: u_family_recurrence(3, depth),
    lambda depth: double_signed_u_recurrence(3, depth),
    shifted_catalan_recurrence,
    shifted_narayana_recurrence,
    type_b_recurrence,
    aerated_narayana_recurrence,
    conv4_recurrence,
    conv4_poly_recurrence,
]


@pytest.mark.parametrize("build", REFERENCE_BUILDERS)
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_reference_builders_have_the_depth_they_are_asked_for(build, depth):
    data = build(depth)
    assert len(data.s) == depth
    assert len(data.t) == max(depth - 1, 0)


def test_aeration_weights_at_count_zero_are_empty():
    assert aerated_u_weights(3, 0) == []
    assert double_signed_u_aerated_t(3, 0) == []


def test_recurrence_builders_match_fits():
    depth = 8
    for r in (1, 2, 3):
        _assert_same_recurrence(u_family_recurrence(r, depth),
                                fit_spec(f"u:r={r}", depth))
        _assert_same_recurrence(double_signed_u_recurrence(r, depth),
                                fit_spec(f"u:r={r}|double-signed", depth))
    _assert_same_recurrence(shifted_catalan_recurrence(depth),
                            fit_spec("catalan|shift:1", depth))
    _assert_same_recurrence(shifted_narayana_recurrence(depth),
                            fit_spec("narayana|shift:1", depth))
    _assert_same_recurrence(type_b_recurrence(depth),
                            fit_spec("narayana-b", depth))
    _assert_same_recurrence(conv4_recurrence(depth),
                            fit_spec("catconv:r=4", depth))
    _assert_same_recurrence(conv4_poly_recurrence(depth),
                            fit_spec("convpoly:m=4", depth))


def test_report_csv_shape():
    report = verify("eq3.6", n_max=2)
    rows = list(csv.reader(io.StringIO(report.csv_text())))
    assert rows[0] == ["r", "n", "expected", "got", "status"]
    assert rows[1] == ["1", "0", "1", "1", "match"]
    assert rows[-1] == ["verdict", "match"]
    assert len(rows) == 2 + 3 * 3


def test_report_json_shape():
    report = verify("thm2.1-d0", n_max=4)
    data = json.loads(report.json_text())
    assert data["id"] == "thm2.1-d0"
    assert data["label"] == "THEOREM"
    assert data["verdict"] == "match"
    assert data["params"] == {"n_max": "4"}
    assert len(data["entries"]) == 5
    entry = data["entries"][2]
    assert entry == {"n": 2, "expected": "-2", "got": "-2", "status": "match"}


def test_reports_are_deterministic():
    first = scan("conj7.7")
    second = scan("conj7.7")
    assert first.csv_text() == second.csv_text()
    assert first.json_text() == second.json_text()


# A made-up report that sets every optional field: k on some rows, r on
# others, a note, a skip reason with no expected/got, a polynomial cell
# and two counterexamples (one without k).  Its CSV and JSON are pinned
# byte for byte, because no registry id reaches a mismatch.
MADE_UP_CSV = (
    "k,r,n,expected,got,status,note,reason\n"
    "1,2,0,1,1,match,,\n"
    '1,,1,"1 + t","t",mismatch,sum of indices 1 and 4,\n'
    ",3,2,-2/3,5,mismatch,,\n"
    "2,,3,,,skipped,,sum pattern needs k >= 2\n"
    "verdict,mismatch\n"
)

MADE_UP_JSON = """\
{
  "id": "made-up",
  "label": "CONJECTURE",
  "params": {
    "k_max": "2",
    "periods": "3"
  },
  "entries": [
    {
      "k": 1,
      "r": 2,
      "n": 0,
      "expected": "1",
      "got": "1",
      "status": "match"
    },
    {
      "k": 1,
      "n": 1,
      "expected": "1 + t",
      "got": "t",
      "status": "mismatch",
      "note": "sum of indices 1 and 4"
    },
    {
      "r": 3,
      "n": 2,
      "expected": "-2/3",
      "got": "5",
      "status": "mismatch"
    },
    {
      "k": 2,
      "n": 3,
      "expected": null,
      "got": null,
      "status": "skipped",
      "reason": "sum pattern needs k >= 2"
    }
  ],
  "counterexamples": [
    {
      "id": "made-up",
      "n": 1,
      "k": 1,
      "expected": "1 + t",
      "got": "t"
    },
    {
      "id": "made-up",
      "n": 2,
      "k": null,
      "expected": "-2/3",
      "got": "5"
    }
  ],
  "verdict": "mismatch"
}
"""


def test_made_up_report_bytes():
    entries = (
        _compared(0, Fraction(1), Fraction(1), k=1, r=2),
        _compared(1, Polynomial.parse("1 + t"), Polynomial.parse("t"), k=1,
                  note="sum of indices 1 and 4"),
        _compared(2, Fraction(-2, 3), Fraction(5), r=3),
        ReportEntry(n=3, expected=None, got=None, status="skipped", k=2,
                    reason="sum pattern needs k >= 2"),
    )
    report = VerificationReport(
        id="made-up", label="CONJECTURE", params={"k_max": 2, "periods": 3},
        entries=entries,
        counterexamples=_gather_counterexamples("made-up", entries),
    )
    assert report.csv_text() == MADE_UP_CSV
    assert report.json_text() == MADE_UP_JSON


def test_unset_counterexample_values_are_json_null():
    report = VerificationReport(
        id="made-up", label="CONJECTURE", params={}, entries=(),
        counterexamples=(Counterexample("made-up", 0, None, None, None),),
    )
    record = json.loads(report.json_text())["counterexamples"][0]
    assert record == {"id": "made-up", "n": 0, "k": None,
                      "expected": None, "got": None}
