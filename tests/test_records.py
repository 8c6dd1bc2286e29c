"""The frozen-record contract of polycf's 12 result and input types.

Each record must behave as the frozen dataclass it replaced: the same
constructors and normalisations, the same repr (pinned below), equality and
hashing by field tuple within one class, no assignment or deletion, copying
and pickling, and the dataclasses protocol (fields, replace, asdict).  Its
to_json writes every field by name, as plain JSON values.
"""

import copy
import dataclasses
import json
import pickle
from fractions import Fraction

import mpmath
import pytest

from polycf.analysis import GrowthBound, TietzeReport, VerificationReport
from polycf.cf import (
    CFSpec,
    CFTail,
    Convergent,
    LimitEstimate,
)
from polycf.families import FamilyMember, Hypothesis, LimitClaim, NamedConstant
from polycf.poly import RationalFunction, ratfn_from_string
from polycf.transforms import BauerMuirResult

_TAIL = CFTail("n^2+1", "2*n", 3)
_CF = CFSpec(Fraction(1, 2), ((Fraction(1), Fraction(3)),), _TAIL)
_TAIL_REPR = ("CFTail(a=RationalFunction(IntPolynomial([1, 0, 1]), IntPolynomial([1])), "
              "b=RationalFunction(IntPolynomial([0, 2]), IntPolynomial([1])), start_index=3)")
_CF_REPR = f"CFSpec(b0=Fraction(1, 2), prefix=((Fraction(1, 1), Fraction(3, 1)),), tail={_TAIL_REPR})"

# (record, its field names, its repr as the frozen dataclass printed it)
_RECORDS = [
    (_TAIL, ("a", "b", "start_index"), _TAIL_REPR),
    (_CF, ("b0", "prefix", "tail"), _CF_REPR),
    (Convergent(2, Fraction(7, 2), Fraction(3)), ("index", "A", "B"),
     "Convergent(index=2, A=Fraction(7, 2), B=Fraction(3, 1))"),
    (LimitEstimate(mpmath.mpf(0.5), mpmath.inf, 40, False, "richardson"),
     ("value", "error_bound", "terms_used", "converged", "method"),
     "LimitEstimate(value=mpf('0.5'), error_bound=mpf('+inf'), terms_used=40, "
     "converged=False, method='richardson')"),
    (Hypothesis("b_n > 0", True, "eventually"), ("name", "holds", "detail"),
     "Hypothesis(name='b_n > 0', holds=True, detail='eventually')"),
    (NamedConstant("Root", {"p": 2, "q": 1}), ("name", "params"),
     "NamedConstant(name='Root', params={'p': 2, 'q': 1})"),
    (LimitClaim.named("Zeta", k=3), ("kind", "value", "constant"),
     "LimitClaim(kind='named', value=None, constant=NamedConstant(name='Zeta', params={'k': 3}))"),
    (FamilyMember(_CF, LimitClaim.exact(Fraction(2, 3)), (Hypothesis("a_n != 0", False),)),
     ("cf", "limit", "hypotheses"),
     f"FamilyMember(cf={_CF_REPR}, limit=LimitClaim(kind='exact', value=Fraction(2, 3), "
     "constant=None), hypotheses=(Hypothesis(name='a_n != 0', holds=False, detail=''),))"),
    (BauerMuirResult(_CF, (Fraction(1),), (Fraction(-2),)), ("cf", "w", "existence_margin"),
     f"BauerMuirResult(cf={_CF_REPR}, w=(Fraction(1, 1),), existence_margin=(Fraction(-2, 1),))"),
    (TietzeReport(True, 4, "AsymptoticPlusScan", 200), ("holds", "N0", "method", "scan_limit"),
     "TietzeReport(holds=True, N0=4, method='AsymptoticPlusScan', scan_limit=200)"),
    (GrowthBound("poly", 2, Fraction(1), Fraction(1, 10), mpmath.mpf(3), mpmath.mpf(0.25)),
     ("kind", "k", "D", "epsilon", "C", "phi"),
     "GrowthBound(kind='poly', k=2, D=Fraction(1, 1), epsilon=Fraction(1, 10), C=mpf('3.0'), "
     "phi=mpf('0.25'))"),
    (VerificationReport("e", {"A": 1}, 60, "E", "2.718", "1e-20", "Pass", "plain"),
     ("preset", "params", "terms", "claimed", "oracle", "abs_err", "verdict", "method"),
     "VerificationReport(preset='e', params={'A': 1}, terms=60, claimed='E', oracle='2.718', "
     "abs_err='1e-20', verdict='Pass', method='plain')"),
]
_IDS = [type(record).__name__ for record, _, _ in _RECORDS]


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


def test_every_record_class_is_covered():
    assert len(set(_IDS)) == len(_IDS) == 12


@pytest.mark.parametrize("record, names, text", _RECORDS, ids=_IDS)
def test_repr_is_the_dataclass_repr(record, names, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, names, text", _RECORDS, ids=_IDS)
def test_equality_and_hash_read_the_field_tuple(record, names, text):
    cls, values = type(record), _values(record, names)
    twin = cls(*values)
    assert twin == record and not twin != record and twin is not record
    assert record != values and values != record
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as the frozen dataclass was
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    for i, name in enumerate(names):
        changed = values[:i] + (object(),) + values[i + 1:]
        other = object.__new__(cls)
        for field, value in zip(names, changed):
            object.__setattr__(other, field, value)
        assert other != record, name


@pytest.mark.parametrize("record, names, text", _RECORDS, ids=_IDS)
def test_to_json_writes_every_field_by_name(record, names, text):
    data = record.to_json()
    assert json.loads(json.dumps(data)) == data
    if isinstance(record, LimitClaim):  # a named claim writes its constant's fields
        assert data == {"kind": "named", "name": "Zeta", "params": {"k": "3"}}
    else:
        assert tuple(data) == names


def test_to_json_writes_each_value_by_its_kind():
    tail = {"a": {"num": ["1", "0", "1"], "den": ["1"]}, "b": {"num": ["0", "2"], "den": ["1"]},
            "start_index": 3}
    assert _CF.to_json() == {"b0": "1/2", "prefix": [["1", "3"]], "tail": tail}
    assert CFSpec(Fraction(2)).to_json() == {"b0": "2", "prefix": [], "tail": None}
    assert BauerMuirResult(_CF, (Fraction(1),), (Fraction(-2, 3),)).to_json() == {
        "cf": _CF.to_json(), "w": ["1"], "existence_margin": ["-2/3"]}
    assert GrowthBound("poly", 2, Fraction(1), Fraction(1, 10), mpmath.mpf(3),
                       mpmath.mpf(0.25)).to_json() == {
        "kind": "poly", "k": 2, "D": "1", "epsilon": "1/10", "C": "3.0", "phi": "0.25"}
    assert NamedConstant("Root", {"p": 2, "q": Fraction(1, 2)}).to_json() == {
        "name": "Root", "params": {"p": 2, "q": "1/2"}}
    assert VerificationReport("e", {"A": 1}, 60, "E", "2.718", "1e-20", "Pass",
                              "plain").to_json()["params"] == {"A": "1"}


def test_records_of_different_classes_never_compare_equal():
    assert Convergent("x", True, "") != Hypothesis("x", True, "")
    assert Hypothesis("x", True, "") != Convergent("x", True, "")
    assert Hypothesis("x", True) != ("x", True, "")


@pytest.mark.parametrize("record, names, text", _RECORDS, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(record, names, text):
    before = _values(record, names)
    for name in names:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 0
    assert _values(record, names) == before


@pytest.mark.parametrize("record, names, text", _RECORDS, ids=_IDS)
def test_copy_deepcopy_and_pickle_return_an_equal_record(record, names, text):
    shallow, deep = copy.copy(record), copy.deepcopy(record)
    restored = pickle.loads(pickle.dumps(record))
    for other in (shallow, deep, restored):
        assert type(other) is type(record)
        assert other == record and repr(other) == text
    assert all(a is b for a, b in zip(_values(shallow, names), _values(record, names)))


@pytest.mark.parametrize("record, names, text", _RECORDS, ids=_IDS)
def test_dataclasses_protocol(record, names, text):
    cls = type(record)
    assert dataclasses.is_dataclass(record) and dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(record)) == names
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert dataclasses.replace(record) == record
    last = names[-1]
    replaced = dataclasses.replace(record, **{last: getattr(record, last)})
    assert replaced == record and replaced is not record
    as_dict = dataclasses.asdict(record)
    assert list(as_dict) == list(names)


@pytest.mark.parametrize("record, names, text", _RECORDS, ids=_IDS)
def test_positional_and_keyword_construction_agree(record, names, text):
    cls, values = type(record), _values(record, names)
    assert cls(*values) == cls(**dict(zip(names, values))) == record
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_defaults_and_missing_fields():
    assert CFSpec() == CFSpec(Fraction(0), (), None)
    assert CFTail("n", "1").start_index == 1
    assert Hypothesis("x", True).detail == ""
    assert LimitClaim("exact") == LimitClaim("exact", None, None)
    assert FamilyMember(_CF, LimitClaim.exact(1)).hypotheses == ()
    first, second = NamedConstant("E"), NamedConstant("E")
    assert first.params == {} and first.params is not second.params
    params = {"k": 2}
    assert NamedConstant("Zeta", params).params is params
    for make in (lambda: Hypothesis("x"), lambda: Convergent(1, 2),
                 lambda: GrowthBound("poly", 2), lambda: LimitClaim()):
        with pytest.raises(TypeError):
            make()


class _Index:
    """An integer-like value that defines only __index__."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v


def test_constructors_normalise_their_fields():
    cf = CFSpec("1/2", [(1, "1/3"), ("2", Fraction(5))], ("n", "n+1", 2))
    assert cf.b0 == Fraction(1, 2) and type(cf.b0) is Fraction
    assert cf.prefix == ((Fraction(1), Fraction(1, 3)), (Fraction(2), Fraction(5)))
    assert type(cf.prefix) is tuple and all(type(pair) is tuple for pair in cf.prefix)
    assert all(type(v) is Fraction for pair in cf.prefix for v in pair)
    assert cf.tail == CFTail(ratfn_from_string("n"), ratfn_from_string("n+1"), 2)
    tail = CFTail("n^2", 3)
    assert isinstance(tail.a, RationalFunction) and isinstance(tail.b, RationalFunction)
    assert tail == CFTail(ratfn_from_string("n^2"), ratfn_from_string("3"))
    with pytest.raises(TypeError, match="start_index must be an integer"):
        CFTail("n", "1", "2")
    for count in (True, _Index(1)):  # read as the count reader reads an integer
        start = CFTail("n", "1", count).start_index
        assert start == 1 and type(start) is int
    with pytest.raises(TypeError):
        CFSpec(1.5)


def test_trusted_cfspec_constructor_matches_the_public_one():
    prefix = ((Fraction(1), Fraction(3)), (Fraction(-2, 5), Fraction(7)))
    made = CFSpec._make(Fraction(1, 2), prefix, _TAIL)
    assert made == CFSpec(Fraction(1, 2), prefix, _TAIL) and repr(made) == repr(
        CFSpec(Fraction(1, 2), prefix, _TAIL))
    assert CFSpec._make(Fraction(0), ()) == CFSpec()
