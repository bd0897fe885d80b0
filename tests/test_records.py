"""The value classes keep the behaviour they had as frozen dataclasses.

Every literal below (repr text, error text, hash) is what the dataclass
versions gave.
"""

import copy
import pickle

import pytest

from sweepmap import (
    BijectionReport,
    Diagnostic,
    FamilyEnumeration,
    FamilySpec,
    StepSequence,
    SWWord,
    Tableau,
    certify_bijection,
    enumerate_family,
)
from sweepmap.paths import _Record

K11 = "FamilySpec(kind='k', k=(1, 1), m=0, n=0)"
K11_PATHS = "(StepSequence(steps=(1, 1, -1, -1)), StepSequence(steps=(1, -1, 1, -1)))"

# a maker of equal, distinct objects; an object of the same class that differs; the repr
RECORDS = {
    "Diagnostic": (lambda: Diagnostic(False, "bad", 3), Diagnostic(False, "bad", 4),
                   "Diagnostic(ok=False, reason='bad', index=3)"),
    "StepSequence": (lambda: StepSequence((2, -1, -1)), StepSequence((1, -1)),
                     "StepSequence(steps=(2, -1, -1))"),
    "SWWord": (lambda: SWWord.from_steps(StepSequence((2, -1, -1))), SWWord((("S", 1), ("W", 1))),
               "SWWord(letters=(('S', 2), ('W', 1), ('W', 1)))"),
    "FamilySpec": (lambda: FamilySpec.plus((2, 1)), FamilySpec.plus((1, 2)),
                   "FamilySpec(kind='kplus', k=(2, 1), m=0, n=0)"),
    "Tableau": (lambda: Tableau(((1, 2), (3, 4, 5))), Tableau(((1, 3), (2, 4, 5))),
                "Tableau(columns=((1, 2), (3, 4, 5)))"),
    "FamilyEnumeration": (lambda: enumerate_family(FamilySpec.vector((1, 1))),
                          enumerate_family(FamilySpec.vector((1, 1)), permute_k=True),
                          f"FamilyEnumeration(family={K11}, permuted=False, paths={K11_PATHS}, "
                          "counts={(1, 1): 2})"),
    "BijectionReport": (lambda: certify_bijection(FamilySpec.vector((1, 1))),
                        certify_bijection(FamilySpec.vector((2,))),
                        f"BijectionReport(family={K11}, count=2, bijection=True, "
                        "counterexample=None)"),
}
HASHABLE = [name for name in RECORDS if name != "FamilyEnumeration"]


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


@pytest.mark.parametrize("name", RECORDS)
def test_equality(name):
    make, other, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    # another class never compares equal, not even with the same field values
    assert a.__eq__(_fields(a)) is NotImplemented and a != _fields(a)
    for that in RECORDS.values():
        if type(that[1]) is not type(a):
            assert a != that[1] and that[1] != a


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_objects_hash_equal(name):
    make, _, _ = RECORDS[name]
    a, b = make(), make()
    assert hash(a) == hash(b) == hash(_fields(a))  # the dataclass hash: that of the field tuple
    assert len({a, b}) == 1


def test_any_record_compares_and_hashes_by_its_field_tuple():
    # a subclass made here, with two fields: equality and hash read what __match_args__ names
    class Pair(_Record):
        __match_args__ = ("a", "b")

        def __init__(self, a, b):
            self.__dict__.update(a=a, b=b)

    assert hash(Pair(1, 2)) == hash((1, 2))
    assert Pair(1, 2) == Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2).__eq__((1, 2)) is NotImplemented


def test_enumeration_is_unhashable():
    with pytest.raises(TypeError, match=r"^unhashable type: 'dict'$"):
        hash(RECORDS["FamilyEnumeration"][0]())


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text


def test_repr_defaults_and_derived_fields():
    assert repr(Diagnostic(True)) == "Diagnostic(ok=True, reason='', index=None)"
    fam = FamilySpec.rational(7, 3)
    assert (fam.up_rises, fam.down_drop, fam.tilt, fam.sorted_rises) == ((7, 7, 7), 3, 1, (7, 7, 7))
    assert repr(fam) == "FamilySpec(kind='rational', k=(), m=7, n=3)"


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_read_only(name):
    obj = RECORDS[name][0]()
    for field in (*type(obj).__match_args__, "extra"):
        with pytest.raises(AttributeError, match=rf"^cannot assign to field '{field}'$"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match=rf"^cannot delete field '{field}'$"):
            delattr(obj, field)


def test_derived_fields_are_read_only():
    fam = FamilySpec.plus((2, 1))
    for field in ("up_rises", "down_drop", "tilt", "sorted_rises", "n_up", "n_down", "size",
                  "scale"):
        with pytest.raises(AttributeError, match=rf"^cannot assign to field '{field}'$"):
            setattr(fam, field, None)


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize("clone", [
    copy.copy,
    copy.deepcopy,
    *(lambda obj, p=p: pickle.loads(pickle.dumps(obj, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
], ids=["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
def test_copies_are_equal(name, clone):
    obj = RECORDS[name][0]()
    twin = clone(obj)
    assert type(twin) is type(obj) and twin == obj and repr(twin) == repr(obj)
    if name in HASHABLE:
        assert hash(twin) == hash(obj)


def test_copied_family_keeps_its_derived_fields():
    fam = FamilySpec.plus((3, 1))
    for twin in (copy.deepcopy(fam), pickle.loads(pickle.dumps(fam))):
        assert (twin.up_rises, twin.down_drop, twin.tilt, twin.sorted_rises) == ((7, 3), 2, 1, (3, 7))
        assert (twin.n_up, twin.n_down, twin.size, twin.scale) == (2, 5, 7, 2)
        assert vars(twin) == vars(fam)


@pytest.mark.parametrize("name", RECORDS)
def test_match_binds_fields_in_order(name):
    obj = RECORDS[name][0]()
    cls = type(obj)
    match obj:
        case cls(first):  # the first field, by position
            assert first is getattr(obj, cls.__match_args__[0])
        case _:
            pytest.fail("no match")
    assert cls.__match_args__ == {
        "Diagnostic": ("ok", "reason", "index"),
        "StepSequence": ("steps",),
        "SWWord": ("letters",),
        "FamilySpec": ("kind", "k", "m", "n"),
        "Tableau": ("columns",),
        "FamilyEnumeration": ("family", "permuted", "paths", "counts"),
        "BijectionReport": ("family", "count", "bijection", "counterexample"),
    }[name]


def test_match_step_sequence():
    match StepSequence((2, -1, -1)):
        case StepSequence(steps):
            assert steps == (2, -1, -1)
        case _:
            pytest.fail("no match")
    match FamilySpec.plus((2, 1)):
        case FamilySpec("kplus", k):
            assert k == (2, 1)
        case _:
            pytest.fail("no match")


def test_sorted_rises_is_one_key_for_every_ordering():
    # derived from up_rises like them: not compared, hashed or shown
    families = [FamilySpec.plus(k) for k in ((1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3))]
    assert {f.sorted_rises for f in families} == {(5, 9, 13, 17)}
    assert families[0] != families[1] and hash(families[0]) == hash(FamilySpec.plus((1, 2, 3, 4)))
    assert FamilySpec.minus((2, 1)).sorted_rises == (1, 3)
    assert FamilySpec.vector((3, 1, 2)).sorted_rises == (1, 2, 3)
