"""The package's record classes: fields are read-only after `__init__`,
copy and pickle rebuild them, equal fields compare and hash alike where
callers compare records, and `JacobiData` still refuses a short t."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from hankelab.exactnum import _Frozen, _Value
from hankelab.hankel import det_sequence, hankel_matrix
from hankelab.orthopoly import JacobiData, fit_spec, pencil_identity_check, triangle
from hankelab.registry import Counterexample, ReportEntry, formula_info, verify
from hankelab.sequences import SequenceSpec, Transform, parse_spec, terms


def _one_of_each() -> list:
    jd = fit_spec("catalan", 3)
    report = verify("thm2.1-d0")
    return [
        hankel_matrix("catalan", 2),
        det_sequence("catalan", 2),
        jd,
        triangle(jd, 3),
        pencil_identity_check(terms("catalan", 4), 2, Fraction(1)),
        formula_info("thm2.1-d0"),
        report.entries[0],
        Counterexample("made-up", 3, None, Fraction(1), Fraction(2)),
        report,
        parse_spec("catalan|shift:1").transforms[0],
        parse_spec("catalan|shift:1"),
    ]


def test_every_record_class_refuses_assignment():
    records = _one_of_each()
    classes = set(_Frozen.__subclasses__()) - {_Value}
    assert {type(r) for r in records} == classes | set(_Value.__subclasses__())
    assert len(records) == 11
    for record in records:
        field = type(record).__slots__[0]
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) is value


def _flat(value):
    """A record as nested tuples, so identity-compared records nested in
    a copy compare by their fields."""
    if isinstance(value, _Frozen):
        return type(value), tuple(_flat(v) for v in value._fields())
    if isinstance(value, tuple):
        return tuple(_flat(v) for v in value)
    return value


def test_copy_and_pickle_rebuild_every_record():
    for record in _one_of_each():
        copies = [copy.copy(record), copy.deepcopy(record)]
        # The private records hold local lambdas, which pickle refuses.
        if not type(record).__name__.startswith("_"):
            copies.append(pickle.loads(pickle.dumps(record)))
        for twin in copies:
            assert type(twin) is type(record)
            assert _flat(twin) == _flat(record)


def test_equal_fields_compare_and_hash_alike():
    pairs = [
        (Transform("shift", 1), Transform("shift", 1), Transform("shift", 2)),
        (parse_spec("catalan|shift:1"),
         SequenceSpec("catalan", None, (Transform("shift", 1),)),
         SequenceSpec("catalan", None, ())),
        (ReportEntry(3, Fraction(1), Fraction(1), "match", k=2),
         ReportEntry(3, Fraction(1), Fraction(1), "match", 2),
         ReportEntry(3, Fraction(1), Fraction(1), "match", r=2)),
        (Counterexample("made-up", 3, 2, Fraction(1), Fraction(2)),
         Counterexample("made-up", 3, 2, Fraction(1), Fraction(2)),
         Counterexample("made-up", 3, None, Fraction(1), Fraction(2))),
    ]
    for a, b, other in pairs:
        assert a == b and hash(a) == hash(b)
        assert a != other
        assert a != object()


def test_jacobi_data_refuses_a_short_t():
    JacobiData((Fraction(1), Fraction(2)), (Fraction(1),))
    with pytest.raises(ValueError, match="t must reach at least depth - 1"):
        JacobiData((Fraction(1), Fraction(2), Fraction(3)), (Fraction(1),))
