"""The value classes' contract: construction, equality, hash, repr,
immutability, pickle and copy, and class patterns."""

import copy
import pickle

import pytest

from braidorder import BraidWord, CanonicalResult, CuttingSequence, SignResult, Validation
from braidorder.oracle import ArtinAutomorphism

POSITIVE = SignResult("positive", 1)
WORD = BraidWord(3, (1, -2))

# (class, field names, field values, repr of the value)
CASES = [
    (BraidWord, ("n", "letters"), (3, (1, -2)), "BraidWord(n=3, letters=(1, -2))"),
    (SignResult, ("kind", "index"), ("positive", 1), "SignResult(kind='positive', index=1)"),
    (CuttingSequence, ("n", "letters"), (2, (0, 2, 4, 6)),
     "CuttingSequence(n=2, letters=(0, 2, 4, 6))"),
    (Validation, ("ok", "reason"), (False, "why"), "Validation(ok=False, reason='why')"),
    (CanonicalResult, ("word", "sign", "iterations"), (WORD, POSITIVE, 2),
     "CanonicalResult(word=BraidWord(n=3, letters=(1, -2)), "
     "sign=SignResult(kind='positive', index=1), iterations=2)"),
    (ArtinAutomorphism, ("n", "images"), (2, ((1,), (2,))),
     "ArtinAutomorphism(n=2, images=((1,), (2,)))"),
]
IDS = [cls.__name__ for cls, *_ in CASES]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    value = cls(*values)
    assert value == cls(**dict(zip(names, values)))
    assert tuple(getattr(value, name) for name in names) == values
    assert cls.__match_args__ == names


def test_defaults():
    assert BraidWord(3) == BraidWord(3, ()) and BraidWord(3).letters == ()
    assert SignResult("trivial").index is None
    assert Validation(True).reason is None


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_equal_only_within_one_class_and_hashed_as_the_field_tuple(cls, names, values, text):
    value = cls(*values)
    assert value == cls(*values) and hash(value) == hash(values)
    assert value.__eq__(values) is NotImplemented and value != values
    for other, _, other_values, _ in CASES:
        if other is not cls:
            assert value.__eq__(other(*other_values)) is NotImplemented


def test_unequal_fields_make_unequal_values():
    assert BraidWord(3, (1,)) != BraidWord(4, (1,)) != BraidWord(4, (-1,))
    assert SignResult("positive", 1) != SignResult("positive", 2)


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_repr_names_the_class_and_each_field(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_assignment_and_deletion_are_refused(cls, names, values, text):
    value = cls(*values)
    first = names[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
        setattr(value, first, values[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
        delattr(value, first)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        value.other = 1
    assert tuple(getattr(value, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_pickle_copy_and_deepcopy_round_trip(cls, names, values, text):
    value = cls(*values)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(twin, names[0], values[0])


def fields_by_match(value):
    match value:
        case BraidWord(n, letters) | CuttingSequence(n, letters) | ArtinAutomorphism(n, letters):
            return n, letters
        case SignResult(a, b) | Validation(a, b):
            return a, b
        case CanonicalResult(word, sign, iterations):
            return word, sign, iterations


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_a_class_pattern_reads_the_fields_in_order(cls, names, values, text):
    assert fields_by_match(cls(*values)) == values


def test_a_keyword_pattern_reads_one_field():
    match WORD:
        case BraidWord(letters=(1, *rest), n=3):
            assert rest == [-2]
        case _:
            pytest.fail("BraidWord(n=3, letters=(1, -2)) did not match")
