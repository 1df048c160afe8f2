"""Catalog of closed-form determinant evaluations and their checkers.

Each formula id names a sequence spec, a Hankel offset, and a closed form
for the resulting determinant values.  `verify` recomputes the
determinants exactly and compares; `scan` does the same for the
parameterized residue patterns whose status is still conjectural.
Reports serialize to CSV or JSON with one row per compared value and a
final verdict; conjecture mismatches are additionally recorded as
counterexamples instead of being treated as fatal.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import (
    Polynomial, PowerSeries, RationalFunction, _Frozen, _set, _Value, binomial,
)
from .hankel import csv_table, det_sequence, json_table
from .lattice import dual_sum_closed
from .orthopoly import JacobiData
from .sequences import (
    catalan_convolution,
    catalan_series,
    f_number,
    fibonacci_poly,
    lucas_poly,
    q_integer,
)

__all__ = [
    "FormulaInfo",
    "ReportEntry",
    "Counterexample",
    "VerificationReport",
    "formula_ids",
    "formula_info",
    "closed_form",
    "verify",
    "scan",
    "binomial_sum_identity",
    "binomial_sum_series",
    "h_value",
    "aerated_u_p0",
    "u_family_recurrence",
    "shifted_catalan_recurrence",
    "shifted_narayana_recurrence",
    "type_b_recurrence",
    "double_signed_u_recurrence",
    "double_signed_u_aerated_t",
    "aerated_u_weights",
    "aerated_narayana_recurrence",
    "conv4_recurrence",
    "conv4_poly_recurrence",
]


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


# -- closed forms; thm2.x pins r of eq3.x (1 Fibonacci, 2 Lucas) ------


def _cf_eq36(n, r):
    return _sign(binomial(n, 2)) * Fraction(r) ** (n - 1) * f_number(n, r)


def _cf_eq37(n, r):
    odd = 2 * (n // 2) + 1
    return _sign(binomial(n + 1, 2)) * Fraction(r) ** n * f_number(odd, r)


def _cf_eq310(n, r):
    m, j = divmod(n, 4)
    base = Fraction(r)
    if j == 0:
        return base ** (4 * m - 1) * f_number(2 * m, r) * f_number(2 * m + 1, r)
    if j == 1:
        return base ** (4 * m) * f_number(2 * m + 1, r) ** 2
    if j == 2:
        return -(base ** (4 * m + 1)) * f_number(2 * m + 1, r) ** 2
    return base ** (4 * m + 2) * f_number(2 * m + 1, r) * f_number(2 * m + 2, r)


def _cf_eq312(n, r):
    if n % 2:
        return Fraction(0)
    m, j = divmod(n, 4)
    value = Fraction(r) ** (4 * m) * f_number(2 * m + 1, r) ** 2
    return value if j == 0 else -(Fraction(r) ** 2) * value


def _cf_thm41(n, r):
    x = Polynomial((-2, -1), "t")
    s = Polynomial((0, -1), "t")
    lead = Polynomial.monomial("t", binomial(n, 2), _sign(n))
    return lead * fibonacci_poly(n + 1, x, s)


def _cf_cor43(n, r):
    return fibonacci_poly(n + 1, Fraction(1), Fraction(-1))


def _cf_eq410(n, r):
    return Fraction(2) ** (n - 1) * lucas_poly(n, Fraction(1), Fraction(-1))


def _cf_thm52(n, r):
    return dual_sum_closed(n)


def _cf_eq122(n, r):
    return Fraction(1) if n == 0 else Fraction(r) ** (n - 1)


def _cf_eq123(n, r):
    if n % 2:
        return Fraction(0)
    return _sign(n // 2) * Fraction(r) ** n


def _cf_u_d1(n, r):
    return Fraction(r) ** n


def _pinned(fn, param: int):
    """A parameterized closed form with its parameter (r or k) fixed, for
    an id without r."""
    return lambda n, _: fn(n, param)


# -- convolution patterns; thm5.1, thm7.3, thm7.4 and d-n-5 pin k -----
# Each gives its conjecture's value at the residues it covers, else None.


def _cf_odd_conv(n, k):
    """conj7.2: catconv:r=2k+1 by n mod 2k+1."""
    period = 2 * k + 1
    m, j = divmod(n, period)
    if j <= 1:
        return Fraction(_sign(k * m))
    grown = Fraction((period * (m + 1)) ** (k - 1))
    if j == k:
        return _sign(k * m + binomial(k, 2)) * grown
    if j == k + 1:
        return Fraction(0)
    if j == k + 2:
        return _sign(k * m + binomial(k, 2) + 1) * grown
    return None


def _cf_even_conv(n, k):
    """conj7.5: catconv:r=2k at n = 0, 1 mod k."""
    m, j = divmod(n, k)
    if j > 1:
        return None
    return _sign(binomial(k, 2) * m) * Fraction((m + 1) ** (k - 1))


def _cf_even_conv_poly(n, k):
    """conj7.7: convpoly:m=2k at n = 0, 1 mod k."""
    m, j = divmod(n, k)
    if j > 1:
        return None
    exponent = k * k * binomial(m, 2) + j * k * m
    lead = Polynomial.monomial("t", exponent, _sign(binomial(k, 2) * m))
    return lead * q_integer(m + 1, Polynomial.monomial("t", k)) ** (k - 1)


# The observed rows add residues the patterns leave open.


def _cf_d6(n, r):
    m, j = divmod(n, 3)
    if j != 2:
        return _cf_even_conv(n, 3)
    squares = (m + 1) * (m + 2) * (2 * m + 3) // 6
    return Fraction(_sign(m + 1) * 9 * squares)


def _cf_d7(n, r):
    m, j = divmod(n, 7)
    if j not in (2, 6):
        return _cf_odd_conv(n, 3)
    s = m if j == 2 else m + 1
    return _sign(m) * (Fraction(343 * s * (s + 1) * (2 * s + 1), 6) - 14 * (m + 1))


def _cf_d8(n, r):
    m, j = divmod(n, 4)
    if j <= 1:
        return _cf_even_conv(n, 4)
    if j == 2:
        tail = 64 * m * m + 32 * m - 75
        return Fraction(2, 45) * (m + 1) ** 2 * (m + 2) * (2 * m + 3) * tail
    tail = 64 * m * m + 352 * m + 405
    return Fraction(-2, 45) * (m + 1) * (m + 2) ** 2 * (2 * m + 3) * tail


# -- the id table -----------------------------------------------------


class FormulaInfo(_Frozen):
    """What a formula id verifies: spec, offset, scale, and proof status."""

    __slots__ = ("id", "spec_template", "offset", "label", "r_domain",
                 "default_n_max", "summary")

    def __init__(self, id: str, spec_template: str | None, offset: int,
                 label: str, r_domain: tuple | None, default_n_max: int,
                 summary: str):
        _set(self, "id", id)
        _set(self, "spec_template", spec_template)
        _set(self, "offset", offset)
        _set(self, "label", label)
        _set(self, "r_domain", r_domain)
        _set(self, "default_n_max", default_n_max)
        _set(self, "summary", summary)


class _Record(_Frozen):
    __slots__ = ("info", "fn")

    def __init__(self, info: FormulaInfo, fn):
        _set(self, "info", info)
        _set(self, "fn", fn)


def _rec(id, spec, offset, label, r_domain, n_max, summary, fn):
    info = FormulaInfo(id, spec, offset, label, r_domain, n_max, summary)
    return id, _Record(info, fn)


_RECORDS = dict(
    [
        _rec("thm2.1-d0", "catalan|double-signed", 0, "THEOREM", None, 7,
             "signed-Catalan determinants give signed Fibonacci numbers",
             _pinned(_cf_eq36, 1)),
        _rec("thm2.1-d1", "catalan|double-signed", 1, "THEOREM", None, 8,
             "shifted signed-Catalan determinants give even-index Fibonacci numbers",
             _pinned(_cf_eq37, 1)),
        _rec("thm2.2-D0", "central-binomial|double-signed", 0, "THEOREM", None, 5,
             "signed central-binomial determinants give scaled Lucas numbers",
             _pinned(_cf_eq36, 2)),
        _rec("thm2.2-D1", "central-binomial|double-signed", 1, "THEOREM", None, 6,
             "shifted signed central-binomial determinants give odd-index Lucas numbers",
             _pinned(_cf_eq37, 2)),
        _rec("thm2.3-d0", "catalan|double-signed|aerate", 0, "THEOREM", None, 10,
             "aerated signed-Catalan determinants give Fibonacci products",
             _pinned(_cf_eq310, 1)),
        _rec("thm2.3-d1", "catalan|double-signed|aerate", 1, "THEOREM", None, 8,
             "shifted aerated signed-Catalan determinants give Fibonacci squares",
             _pinned(_cf_eq312, 1)),
        _rec("thm2.4-D0", "central-binomial|double-signed|aerate", 0, "THEOREM", None, 5,
             "aerated signed central-binomial determinants give scaled Lucas products",
             _pinned(_cf_eq310, 2)),
        _rec("thm2.4-D1", "central-binomial|double-signed|aerate", 1, "THEOREM", None, 6,
             "shifted aerated signed central-binomial determinants give scaled Lucas squares",
             _pinned(_cf_eq312, 2)),
        _rec("eq3.6", "u:r={r}|double-signed", 0, "THEOREM", (1, 2, 3), 10,
             "signed-u determinants give scaled f-numbers",
             _cf_eq36),
        _rec("eq3.7", "u:r={r}|double-signed", 1, "THEOREM", (1, 2, 3), 10,
             "shifted signed-u determinants give odd-index f-numbers",
             _cf_eq37),
        _rec("eq3.10", "u:r={r}|double-signed|aerate", 0, "THEOREM", (1, 2), 9,
             "aerated signed-u determinants give f-number products",
             _cf_eq310),
        _rec("eq3.12", "u:r={r}|double-signed|aerate", 1, "THEOREM", (1, 2), 9,
             "shifted aerated signed-u determinants give f-number squares",
             _cf_eq312),
        _rec("thm4.1", "narayana|shift:1|consecutive-sum", 0, "THEOREM", None, 6,
             "Narayana-sum determinants give signed Fibonacci polynomials",
             _cf_thm41),
        _rec("cor4.3", "catalan|double-signed|abs", 0, "THEOREM", None, 11,
             "period-6 pattern from unsigned rows of the signed-Catalan scheme",
             _cf_cor43),
        _rec("eq4.10", "central-binomial|double-signed|abs", 0, "THEOREM", None, 7,
             "scaled Lucas-polynomial values from unsigned central-binomial rows",
             _cf_eq410),
        _rec("thm5.1", "catconv:r=3", 0, "THEOREM", None, 12,
             "threefold Catalan convolution determinants cycle with period 6",
             _pinned(_cf_odd_conv, 1)),
        _rec("thm5.2", "convpoly:m=3", 0, "THEOREM", None, 8,
             "threefold convolution polynomial determinants, alternating closed form",
             _cf_thm52),
        _rec("eq1.22", "u:r={r}|aerate", 0, "THEOREM", (1, 2, 3), 8,
             "aerated u-sequence determinants give powers of r",
             _cf_eq122),
        _rec("eq1.23", "u:r={r}|aerate", 1, "THEOREM", (1, 2, 3), 8,
             "shifted aerated u-sequence determinants give signed even powers of r",
             _cf_eq123),
        _rec("u-d0", "u:r={r}", 0, "THEOREM", (1, 2, 3), 8,
             "u-sequence determinants give powers of r",
             _cf_eq122),
        _rec("u-d1", "u:r={r}", 1, "THEOREM", (1, 2, 3), 8,
             "shifted u-sequence determinants give powers of r",
             _cf_u_d1),
        _rec("thm7.3", "catconv:r=4", 0, "THEOREM", None, 8,
             "fourfold Catalan convolution determinants grow linearly with period 2",
             _pinned(_cf_even_conv, 2)),
        _rec("thm7.4", "convpoly:m=4", 0, "THEOREM", None, 9,
             "fourfold convolution polynomial determinants give q-integer multiples",
             _pinned(_cf_even_conv_poly, 2)),
        _rec("d-n-5", "catconv:r=5", 0, "OBSERVED", None, 9,
             "fivefold Catalan convolution determinants, observed period-5 pattern",
             _pinned(_cf_odd_conv, 2)),
        _rec("d-n-6", "catconv:r=6", 0, "OBSERVED", None, 8,
             "sixfold Catalan convolution determinants, observed period-3 pattern",
             _cf_d6),
        _rec("d-n-7", "catconv:r=7", 0, "OBSERVED", None, 6,
             "sevenfold Catalan convolution determinants, observed period-7 pattern",
             _cf_d7),
        _rec("d-n-8", "catconv:r=8", 0, "OBSERVED", None, 10,
             "eightfold Catalan convolution determinants, observed period-4 pattern",
             _cf_d8),
        _rec("conj7.2", None, 0, "CONJECTURE", None, 0,
             "residue and sum patterns for odd-fold Catalan convolution determinants",
             None),
        _rec("conj7.5", None, 0, "CONJECTURE", None, 0,
             "residue and sum patterns for even-fold Catalan convolution determinants",
             None),
        _rec("conj7.6", None, 0, "CONJECTURE", None, 8,
             "sixfold convolution polynomial determinants, period-3 q-pattern",
             None),
        _rec("conj7.7", None, 0, "CONJECTURE", None, 2,
             "even-fold convolution polynomial determinants, leading q-pattern",
             None),
    ]
)


def _record(id: str) -> _Record:
    record = _RECORDS.get(id)
    if record is None:
        raise ValueError(f"unknown formula id: {id}")
    return record


def _r_values(info: FormulaInfo, r: int | None) -> tuple:
    """The r values to check: (None,) without r, r alone, or the domain."""
    if info.r_domain is None:
        if r is not None:
            raise ValueError(f"{info.id} takes no r parameter")
        return (None,)
    if r is None:
        return info.r_domain
    if r < 1:
        raise ValueError("r must be >= 1")
    return (r,)


def formula_ids() -> tuple:
    return tuple(_RECORDS)


def formula_info(id: str) -> FormulaInfo:
    return _record(id).info


def closed_form(id: str, n: int, r: int | None = None):
    """Predicted determinant value for one index of a non-conjecture id."""
    record = _record(id)
    if record.fn is None:
        raise ValueError(f"{id} is scanned as a pattern, not per index")
    if n < 0:
        raise ValueError("index must be >= 0")
    if record.info.r_domain is not None and r is None:
        raise ValueError(f"{id} needs an r parameter")
    _r_values(record.info, r)
    return record.fn(n, r)


# -- reports -----------------------------------------------------------


class ReportEntry(_Value):
    """One compared value of a report: index, both sides and the status."""

    __slots__ = ("n", "expected", "got", "status", "k", "r", "note", "reason")

    def __init__(self, n: int, expected, got, status: str, k: int | None = None,
                 r: int | None = None, note: str | None = None,
                 reason: str | None = None):
        _set(self, "n", n)
        _set(self, "expected", expected)
        _set(self, "got", got)
        _set(self, "status", status)
        _set(self, "k", k)
        _set(self, "r", r)
        _set(self, "note", note)
        _set(self, "reason", reason)


# Report columns in output order.  The optional ones appear in the CSV
# only when some entry sets them, and in a JSON entry only when it does.
_COLUMNS = ("k", "r", "n", "expected", "got", "status", "note", "reason")
_OPTIONAL = ("k", "r", "note", "reason")


def _json_value(column: str, value):
    """Exact values are JSON strings; indices, labels and null stay as-is."""
    return str(value) if column in ("expected", "got") and value is not None else value


class Counterexample(_Value):
    """A mismatch that `scan` records instead of treating it as fatal."""

    __slots__ = ("id", "n", "k", "expected", "got")

    def __init__(self, id: str, n: int, k: int | None, expected, got):
        _set(self, "id", id)
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "expected", expected)
        _set(self, "got", got)


class VerificationReport(_Frozen):
    __slots__ = ("id", "label", "params", "entries", "counterexamples")

    def __init__(self, id: str, label: str, params: dict, entries: tuple,
                 counterexamples: tuple):
        _set(self, "id", id)
        _set(self, "label", label)
        _set(self, "params", params)
        _set(self, "entries", entries)
        _set(self, "counterexamples", counterexamples)

    @property
    def verdict(self) -> str:
        bad = any(e.status == "mismatch" for e in self.entries)
        return "mismatch" if bad else "match"

    def json_text(self) -> str:
        entries = [
            {c: _json_value(c, getattr(e, c)) for c in _COLUMNS
             if c not in _OPTIONAL or getattr(e, c) is not None}
            for e in self.entries
        ]
        counterexamples = [
            {key: _json_value(key, getattr(c, key)) for key in c.__slots__}
            for c in self.counterexamples
        ]
        return json_table({
            "id": self.id,
            "label": self.label,
            "params": {key: str(val) for key, val in self.params.items()},
            "entries": entries,
            "counterexamples": counterexamples,
            "verdict": self.verdict,
        })

    def csv_text(self) -> str:
        columns = [
            c for c in _COLUMNS
            if c not in _OPTIONAL or any(getattr(e, c) is not None for e in self.entries)
        ]
        rows = ([getattr(e, c) for c in columns] for e in self.entries)
        return csv_table(columns, rows, ("verdict", self.verdict))


def _compared(n, expected, got, k=None, r=None, note=None) -> ReportEntry:
    status = "match" if expected == got else "mismatch"
    return ReportEntry(n=n, expected=expected, got=got, status=status,
                       k=k, r=r, note=note)


def _gather_counterexamples(id: str, entries) -> tuple:
    return tuple(
        Counterexample(id=id, n=e.n, k=e.k, expected=e.expected, got=e.got)
        for e in entries
        if e.status == "mismatch"
    )


def verify(id: str, n_max: int | None = None, r: int | None = None) -> VerificationReport:
    """Compare computed determinants against the id's closed form.

    Covers every index 0..n_max (default from the table).  For ids with
    an r parameter, a given r is checked alone and r=None walks the
    documented domain.  Conjecture ids are forwarded to `scan`.
    """
    record = _record(id)
    info = record.info
    if id in _SCANS:
        _r_values(info, r)
        return scan(id, n_max=n_max)
    top = info.default_n_max if n_max is None else n_max
    if top < 0:
        raise ValueError("n_max must be >= 0")
    r_values = _r_values(info, r)
    params = {"n_max": top}
    if info.r_domain is not None:
        params["r"] = ",".join(str(v) for v in r_values)
    entries = []
    for rv in r_values:
        spec = info.spec_template if rv is None else info.spec_template.format(r=rv)
        dets = det_sequence(spec, top, info.offset)
        for n in range(top + 1):
            entries.append(_compared(n, record.fn(n, rv), dets[n], r=rv))
    counter = () if info.label == "THEOREM" else _gather_counterexamples(id, entries)
    return VerificationReport(id=id, label=info.label, params=params,
                              entries=tuple(entries), counterexamples=counter)


# -- conjecture scans --------------------------------------------------


def _scan_odd_residues(k_max: int = 3) -> tuple:
    entries = []
    for k in range(1, k_max + 1):
        period = 2 * k + 1
        dets = det_sequence(f"catconv:r={period}", 4 * k + 4)
        for base in (0, period):
            for n in (base, base + 1, base + k, base + k + 1, base + k + 2):
                entries.append(_compared(n, _cf_odd_conv(n, k), dets[n], k=k))
        for m in (1, 2):
            low = period * m - 1
            high = period * m + 2
            expected = Fraction(_sign(k * m + 1) * (k - 1) * period)
            entries.append(
                _compared(low, expected, dets[low] + dets[high], k=k,
                          note=f"sum of indices {low} and {high}")
            )
    return entries, {"k_max": k_max, "periods": 2}


def _scan_even_residues(k_max: int = 4) -> tuple:
    entries = []
    for k in range(1, k_max + 1):
        top = 4 * k + 2 if k >= 2 else 2 * k + 1
        dets = det_sequence(f"catconv:r={2 * k}", top)
        for n in (0, 1, 2):
            for index in (k * n, k * n + 1):
                expected = _cf_even_conv(index, k)
                entries.append(_compared(index, expected, dets[index], k=k))
        if k == 1:
            entries.append(ReportEntry(n=1, expected=None, got=None,
                                       status="skipped", k=k,
                                       reason="sum pattern needs k >= 2"))
            continue
        for n in (1, 2):
            low = 2 * k * n - 1
            high = 2 * k * n + 2
            expected = Fraction(-k * (2 * k - 3) * (2 * n + 1) ** (k - 1))
            entries.append(
                _compared(low, expected, dets[low] + dets[high], k=k,
                          note=f"sum of indices {low} and {high}")
            )
    return entries, {"k_max": k_max, "periods": 3}


def _conj76_expected(n: int) -> Polynomial:
    m, j = divmod(n, 3)
    if j != 2:
        return _cf_even_conv_poly(n, 3)
    lead = Polynomial.monomial("t", 3 * m * (3 * m + 1) // 2, 3 * _sign(m + 1))
    ripple = Polynomial.zero()
    for i in range(2 * m + 1):
        coeff = binomial(min(i, 2 * m - i) + 2, 2)
        ripple = ripple + Polynomial.monomial("t", 3 * i, coeff)
    return lead * q_integer(3, Polynomial.variable_poly("t")) * ripple


def _scan_conv6(n_max: int) -> tuple:
    dets = det_sequence("convpoly:m=6", n_max)
    entries = [
        _compared(n, _conj76_expected(n), dets[n], k=3)
        for n in range(n_max + 1)
    ]
    return entries, {"n_max": n_max}


def _scan_conv_even(n_max: int, k_max: int = 3) -> tuple:
    entries = []
    for k in range(1, k_max + 1):
        dets = det_sequence(f"convpoly:m={2 * k}", k * n_max + 1)
        for n in range(n_max + 1):
            expected = _cf_even_conv_poly(k * n, k)
            entries.append(_compared(k * n, expected, dets[k * n], k=k))
            shifted = expected * Polynomial.monomial("t", k * n)
            entries.append(_compared(k * n + 1, shifted, dets[k * n + 1], k=k))
    return entries, {"k_max": k_max, "n_max": n_max}


# Each conjecture scan and the parameters it reads; other ids read only
# n_max.  An unset k_max takes the scan's default, an unset n_max the
# id's documented range.
_SCANS = {
    "conj7.2": (_scan_odd_residues, ("k_max",)),
    "conj7.5": (_scan_even_residues, ("k_max",)),
    "conj7.6": (_scan_conv6, ("n_max",)),
    "conj7.7": (_scan_conv_even, ("k_max", "n_max")),
}


def scan(id: str, k_max: int | None = None, n_max: int | None = None) -> VerificationReport:
    """Walk a conjectured pattern over its parameter range.

    Mismatches become counterexample records and flip the verdict, but
    never raise.  Non-conjecture ids fall through to `verify` so the
    observed single-sequence patterns can be scanned the same way.  A
    parameter the id does not read raises ValueError.
    """
    record = _record(id)
    walk, reads = _SCANS.get(id, (None, ("n_max",)))
    for name, value in (("k_max", k_max), ("n_max", n_max)):
        if value is not None and name not in reads:
            raise ValueError(f"{id} takes no {name} parameter")
    if walk is None:
        return verify(id, n_max=n_max)
    if k_max is not None and k_max < 1:
        raise ValueError("k_max must be >= 1")
    top = record.info.default_n_max if n_max is None else n_max
    if top < 0:
        raise ValueError("n_max must be >= 0")
    given = {"k_max": k_max, "n_max": top}
    kwargs = {name: given[name] for name in reads if given[name] is not None}
    entries, params = walk(**kwargs)
    return VerificationReport(
        id=id,
        label="CONJECTURE",
        params=params,
        entries=tuple(entries),
        counterexamples=_gather_counterexamples(id, entries),
    )


# -- side identities used by the determinant proofs --------------------


def binomial_sum_identity(k: int, n: int) -> tuple:
    """Alternating binomial sum against convolution numbers, with its
    closed form; returns (lhs, rhs).  The right side is 0 for n <= k."""
    if k < 0 or n < 0:
        raise ValueError("indices must be >= 0")
    lhs = Fraction(0)
    for j in range(k + 1):
        weight = binomial(k + j, 2 * j + 1) + binomial(k + j + 1, 2 * j + 1)
        term = weight * catalan_convolution(n + j, 2 * k + 1)
        lhs += term if (k - j) % 2 == 0 else -term
    if n - k - 1 < 0:
        rhs = Fraction(0)
    else:
        rhs = Fraction(2 * k + 1, n + k) * binomial(2 * n + 2 * k, n - k - 1)
    return lhs, rhs


def binomial_sum_series(k: int, order: int) -> tuple:
    """Generating-series form of the same identity; returns both sides
    truncated at the given order."""
    if k < 0 or order < 0:
        raise ValueError("indices must be >= 0")
    lhs = PowerSeries([binomial_sum_identity(k, n)[0] for n in range(order + 1)])
    rhs = (catalan_series(order) ** (4 * k + 2)).shift_up(k + 1).truncate(order)
    return lhs, rhs


def h_value(n: int, r: int) -> Fraction:
    """Signed constant term of the signed-u orthogonal polynomials."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    if n % 2:
        return Fraction(-r)
    if n == 0:
        return Fraction(1)
    return r * f_number(n + 1, r) / f_number(n, r)


def aerated_u_p0(n: int, r: int) -> Fraction:
    """Value at 0 of the aerated signed-u orthogonal polynomials: 0 at odd
    n and (-1)^h h_value(h, r) at n = 2h."""
    if n < 0:
        raise ValueError("index must be >= 0")
    half = n // 2
    value = _sign(half) * h_value(half, r)
    return Fraction(0) if n % 2 else value


# -- reference recurrence coefficients ---------------------------------


def u_family_recurrence(r: int, depth: int) -> JacobiData:
    """s = r, 2, 2, ...; t = r, 1, 1, ..."""
    s = (Fraction(r),) + (Fraction(2),) * (depth - 1)
    t = ((Fraction(r),) + (Fraction(1),) * (depth - 2)) if depth > 1 else ()
    return JacobiData(s, t)


def shifted_catalan_recurrence(depth: int) -> JacobiData:
    s = (Fraction(2),) * depth
    return JacobiData(s, (Fraction(1),) * (depth - 1))


def shifted_narayana_recurrence(depth: int) -> JacobiData:
    one_plus_t = Polynomial((1, 1), "t")
    t = Polynomial.variable_poly("t")
    return JacobiData((one_plus_t,) * depth, (t,) * (depth - 1))


def type_b_recurrence(depth: int) -> JacobiData:
    one_plus_t = Polynomial((1, 1), "t")
    t = Polynomial.variable_poly("t")
    two_t = Polynomial((0, 2), "t")
    tail = ((two_t,) + (t,) * (depth - 2)) if depth > 1 else ()
    return JacobiData((one_plus_t,) * depth, tail)


def double_signed_u_recurrence(r: int, depth: int) -> JacobiData:
    """Recurrence data of the double-signed u-sequence moments."""
    s = [Fraction(-r)]
    for k in range(1, depth):
        num = Fraction(r * r + r - 1, 1)
        val = num / (f_number(k, r) * f_number(k + 1, r))
        s.append(val if (k - 1) % 2 == 0 else -val)
    t = [
        -f_number(k, r) * f_number(k + 2, r) / f_number(k + 1, r) ** 2
        for k in range(depth - 1)
    ]
    return JacobiData(tuple(s), tuple(t))


def double_signed_u_aerated_t(r: int, count: int) -> list:
    """Period-4 weight pattern of the aerated double-signed u-moments."""
    out = []
    for i in range(count):
        k, j = divmod(i, 4)
        if j == 0:
            out.append(-f_number(2 * k, r) / f_number(2 * k + 1, r))
        elif j == 1:
            out.append(f_number(2 * k + 2, r) / f_number(2 * k + 1, r))
        elif j == 2:
            out.append(-f_number(2 * k + 3, r) / f_number(2 * k + 2, r))
        else:
            out.append(f_number(2 * k + 1, r) / f_number(2 * k + 2, r))
    return out


def aerated_u_weights(r: int, count: int) -> list:
    return [Fraction(r)] + [Fraction(1)] * (count - 1) if count else []


def aerated_narayana_recurrence(depth: int) -> JacobiData:
    t = Polynomial.variable_poly("t")
    weights = [Fraction(1) if k % 2 == 0 else t for k in range(depth - 1)]
    return JacobiData((Fraction(0),) * depth, tuple(weights))


def conv4_recurrence(depth: int) -> JacobiData:
    """Recurrence data behind the fourfold convolution determinants."""
    s = tuple(Fraction(4) if k % 2 == 0 else Fraction(0) for k in range(depth))
    t = []
    for i in range(depth - 1):
        k, j = divmod(i, 2)
        if j == 0:
            t.append(Fraction(-(k + 2), k + 1))
        else:
            t.append(Fraction(-(k + 1), k + 2))
    return JacobiData(s, tuple(t))


def conv4_poly_recurrence(depth: int) -> JacobiData:
    """Recurrence data behind the fourfold convolution polynomial
    determinants; entries are rational functions in t."""
    two_two = Polynomial((2, 2), "t")
    t2 = Polynomial.monomial("t", 2)
    s = tuple(two_two if k % 2 == 0 else Polynomial.zero() for k in range(depth))
    t = []
    for i in range(depth - 1):
        k, j = divmod(i, 2)
        lower = q_integer(k + 1, t2)
        upper = q_integer(k + 2, t2)
        if j == 0:
            t.append(RationalFunction(-upper, lower))
        else:
            t.append(RationalFunction(-(t2 * lower), upper))
    return JacobiData(s, tuple(t))
