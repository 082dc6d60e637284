import pytest

from braidorder import BraidWord, WordError, parse_word
from braidorder.words import (
    MAX_STRANDS,
    crossing_numbers,
    format_word,
    free_reduce,
    is_sigma_consistent,
    permutation_image,
)
from conftest import random_word


def test_parse_basic():
    w = parse_word("1 -2 1", 3)
    assert w.n == 3
    assert w.letters == (1, -2, 1)


def test_parse_empty():
    assert parse_word("", 3).letters == ()
    assert parse_word("   ", 3).letters == ()


def test_parse_rejects_out_of_range():
    with pytest.raises(WordError):
        parse_word("3", 3)
    with pytest.raises(WordError):
        parse_word("0", 3)
    with pytest.raises(WordError):
        parse_word("-4", 4)


def test_parse_rejects_garbage():
    with pytest.raises(WordError):
        parse_word("one two", 3)
    with pytest.raises(WordError):
        parse_word("1.5", 3)


def test_constructor_validates_letters():
    with pytest.raises(WordError):
        BraidWord(2, (2,))
    with pytest.raises(WordError):
        BraidWord(1, ())


def test_strand_count_is_bounded():
    assert parse_word("1", MAX_STRANDS).n == MAX_STRANDS
    with pytest.raises(WordError, match="strand count"):
        parse_word("", MAX_STRANDS + 1)
    with pytest.raises(WordError, match="strand count"):
        parse_word("", 10**9)


def test_format_round_trip(rng):
    for _ in range(200):
        n = rng.randint(2, 5)
        w = random_word(rng, n)
        assert parse_word(format_word(w), n) == w


def test_str_matches_format():
    w = parse_word("1 -2", 3)
    assert str(w) == "1 -2" == format_word(w)


def test_product_and_inverse():
    a = parse_word("1 2", 3)
    b = parse_word("-1", 3)
    assert (a * b).letters == (1, 2, -1)
    assert a.inverse().letters == (-2, -1)
    assert len(a * b) == 3


def test_product_requires_same_strands():
    with pytest.raises(WordError):
        parse_word("1", 2) * parse_word("1", 3)


def test_free_reduce():
    assert free_reduce(parse_word("1 -1 2", 3)).letters == (2,)
    assert free_reduce(parse_word("1 2 -2 -1", 3)).letters == ()
    # reduction cascades through newly adjacent pairs
    assert free_reduce(parse_word("2 1 -1 -2 1", 3)).letters == (1,)


def test_permutation_identity():
    assert permutation_image(parse_word("", 4)) == (1, 2, 3, 4)


def test_permutation_single_crossing():
    assert permutation_image(parse_word("1", 2)) == (2, 1)
    assert permutation_image(parse_word("-1", 2)) == (2, 1)


def test_permutation_of_equivalent_presentations():
    """Both spellings of one braid induce the transposition of strings 1, 4."""
    a = parse_word("1 2 -3 2 -1", 4)
    b = parse_word("-2 -3 1 -2 1 3 2", 4)
    assert permutation_image(a) == (4, 2, 3, 1)
    assert permutation_image(b) == (4, 2, 3, 1)


def test_permutation_invariant_under_relators(rng):
    from conftest import insert_identity

    for _ in range(200):
        w = random_word(rng, rng.randint(2, 5))
        assert permutation_image(w) == permutation_image(insert_identity(rng, w))


def test_crossing_numbers_single():
    assert crossing_numbers(parse_word("1", 2)) == {(1, 2): 1}
    assert crossing_numbers(parse_word("-1", 2)) == {(1, 2): -1}


def test_crossing_numbers_label_convention():
    """Counts are indexed by starting position of the strings, not by where
    the crossing happens: after sigma_1 the strings 1 and 2 have swapped, so
    the sigma_2 letter in "1 2" crosses the strings labelled 1 and 3."""
    c = crossing_numbers(parse_word("1 2", 3))
    assert c == {(1, 2): 1, (1, 3): 1, (2, 3): 0}


def test_crossing_numbers_matrix():
    c = crossing_numbers(parse_word("1 2 -3 2 -1", 4))
    assert c == {
        (1, 2): 1,
        (1, 3): 1,
        (1, 4): -1,
        (2, 3): 0,
        (2, 4): -1,
        (3, 4): 1,
    }


def test_crossing_numbers_invariant_under_relators(rng):
    from conftest import insert_identity

    for _ in range(200):
        w = random_word(rng, rng.randint(2, 5))
        assert crossing_numbers(w) == crossing_numbers(insert_identity(rng, w))


def test_sigma_consistency():
    assert str(is_sigma_consistent(parse_word("", 3))) == "trivial"
    assert str(is_sigma_consistent(parse_word("-1 2", 3))) == "negative i=1"
    assert str(is_sigma_consistent(parse_word("1 2 -2 1", 3))) == "positive i=1"
    assert str(is_sigma_consistent(parse_word("2 -2", 3))) == "inconsistent"
    assert str(is_sigma_consistent(parse_word("-2 -3 1 -2 1 3 2", 4))) == "positive i=1"


def test_sigma_consistency_ignores_larger_indices():
    # only the smallest occurring index matters
    assert is_sigma_consistent(parse_word("1 3 -3 1", 4)).kind == "positive"
    assert is_sigma_consistent(parse_word("1 3 -3 1", 4)).index == 1
