"""The value classes behave as immutable records: equality and hashing over
their fields, a Name(field=...) repr, no assignment or deletion, and
copy and pickle round-trips."""

import copy
import pickle

import pytest

from ortho_szego.oprl import RealRecurrence
from ortho_szego.opuc import VerblunskySeq
from ortho_szego.perturb import (
    AntiAssociated,
    Associated,
    CoDilated,
    CoRecursive,
    KModification,
    PathDiscrepancy,
    Sieve,
)
from ortho_szego.spectral import CFunctionHandle, SFunctionHandle
from ortho_szego.szego import LuCheckResult

# (factory, repr); each factory call builds a fresh, equal value
VALUES = [
    (lambda: RealRecurrence((0, 0.5), (0.5, 0.25)),
     "RealRecurrence(b=(0.0, 0.5), d=(0.5, 0.25))"),
    (lambda: VerblunskySeq((0.25, 0.5j)),
     "VerblunskySeq(alpha=((0.25+0j), 0.5j))"),
    (lambda: LuCheckResult(False, 0.25, ((1, 0, 0.5, 0.25),)),
     "LuCheckResult(ok=False, max_abs_error=0.25, mismatches=((1, 0, 0.5, 0.25),))"),
    (lambda: SFunctionHandle(RealRecurrence((0, 0), (0.5, 0.25)), 2),
     "SFunctionHandle(rc=RealRecurrence(b=(0.0, 0.0), d=(0.5, 0.25)), depth=2)"),
    (lambda: CFunctionHandle(VerblunskySeq((0.1,)), 1),
     "CFunctionHandle(vs=VerblunskySeq(alpha=((0.1+0j),)), depth=1)"),
    (lambda: CoDilated(1, 0.5),
     "CoDilated(k=1, lam=0.5)"),
    (lambda: CoRecursive(0, -0.25),
     "CoRecursive(k=0, tau=-0.25)"),
    (lambda: KModification(2, 0.5j),
     "KModification(k=2, eta=0.5j)"),
    (lambda: Associated(3),
     "Associated(k=3)"),
    (lambda: AntiAssociated(xi=(0.1,)),
     "AntiAssociated(pre_b=(), pre_d=(), xi=(0.1,))"),
    (lambda: AntiAssociated((0.1,), (0.3,)),
     "AntiAssociated(pre_b=(0.1,), pre_d=(0.3,), xi=())"),
    (lambda: Sieve(2),
     "Sieve(ell=2)"),
    (lambda: PathDiscrepancy("perturbed_v", 1, 0.5, 0.0, 1, 0.25, 0.5),
     "PathDiscrepancy(op='perturbed_v', k=1, lam=0.5, tau=0.0, index=1, "
     "default_value=0.25, shortcut_value=0.5)"),
]

IDS = [text.split("(")[0] for _, text in VALUES]


@pytest.mark.parametrize("make, text", VALUES, ids=IDS)
def test_equality_hash_and_repr(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == text
    # only instances of the same class compare equal
    assert a.__eq__(tuple(getattr(a, f) for f in a.__slots__)) is NotImplemented
    assert a != object()


@pytest.mark.parametrize("make, text", VALUES, ids=IDS)
def test_fields_cannot_change(make, text):
    value = make()
    field = value.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


@pytest.mark.parametrize("roundtrip", [
    copy.copy,
    copy.deepcopy,
    lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("make, text", VALUES, ids=IDS)
def test_copy_and_pickle_roundtrip(make, text, roundtrip):
    value = make()
    again = roundtrip(value)
    assert type(again) is type(value)
    assert again == value
    assert repr(again) == text


def test_unequal_values_differ():
    assert RealRecurrence((0,), (0.5,)) != RealRecurrence((0,), (0.25,))
    assert CoDilated(1, 0.5) != CoDilated(2, 0.5)
    # same fields, different classes
    assert Associated(1) != Sieve(1)


@pytest.mark.parametrize("make, fields", [
    (LuCheckResult, (True, 0.0, ())),
    (PathDiscrepancy, ("perturbed_v", 1, 0.5, 0.0, 1, 0.25, 0.5)),
], ids=["LuCheckResult", "PathDiscrepancy"])
def test_wrong_field_count_raises(make, fields):
    # Value.__init__ takes exactly one argument per field, as a written-out
    # constructor would; a short call must not leave a slot unset
    assert make(*fields)._fields() == fields
    for wrong in (fields[:-1], fields + (None,)):
        with pytest.raises(TypeError, match=rf"^{make.__name__}\(\) takes {len(fields)} fields "):
            make(*wrong)
