import time

import pytest

from braidorder import BraidWord, WordError, braid_equal, parse_word
from braidorder.words import (
    MAX_STRANDS,
    crossing_numbers,
    format_word,
    free_reduce,
    is_sigma_consistent,
    permutation_image,
)
from conftest import insert_identity, random_word


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
    # int() reads "1_0", "+1", "٣", "01" and "-02" as integers; a word has
    # one text form only
    for text in ("1_0", "+1", "٣", "01", "1 -02", "1-2", "- 1"):
        with pytest.raises(WordError, match="not an integer letter"):
            parse_word(text, 12)


def test_parse_digit_runs():
    # a zero after the first digit is no leading zero
    assert parse_word("10 -10 100", 101).letters == (10, -10, 100)
    # past 4,300 digits int() raises a plain ValueError
    with pytest.raises(WordError, match="out of range"):
        parse_word("1 " + "1" * 5_000, 3)


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


def test_free_reduce_cancels_across_commuting_letters():
    assert free_reduce(parse_word("1 3 -1", 4)).letters == (3,)
    assert free_reduce(parse_word("-2 4 5 -5 2 4", 6)).letters == (4, 4)
    assert free_reduce(parse_word("1 3 4 -3 -1", 5)).letters == (3, 4, -3)
    # cascades through pairs that only became cancellable
    assert free_reduce(parse_word("1 3 2 -2 -3 -1", 4)).letters == ()


def test_free_reduce_is_blocked_by_a_non_commuting_letter():
    for text in ("1 2 -1", "2 1 -2", "2 3 -2", "1 3 2 -1", "1 1 2 -1"):
        w = parse_word(text, 4)
        assert free_reduce(w) == w
    # the nearest letter of the same index is the only partner
    assert free_reduce(parse_word("1 1 -1", 3)).letters == (1,)


def _cancellable_pair(letters):
    """A pair k ... -k with only commuting letters between, by brute force."""
    for p, k in enumerate(letters):
        for j in range(p + 1, len(letters)):
            if letters[j] == -k:
                return p, j
            if abs(abs(letters[j]) - abs(k)) < 2:
                break
    return None


def test_free_reduce_presents_the_same_braid_and_leaves_no_pair(rng):
    for _ in range(300):
        n = rng.randint(2, 10)
        w = random_word(rng, n, max_len=40)
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                w = insert_identity(rng, w)
        r = free_reduce(w)
        assert braid_equal(r, w)
        assert len(r) <= len(w)
        assert free_reduce(r) == r
        assert _cancellable_pair(r.letters) is None


def test_free_reduce_is_linear_on_long_pathological_words():
    """Words where each cancelling letter passes many commuting ones."""
    m = 6_667
    deep = BraidWord(4, (1,) * m + (3,) * m + (-1,) * m)
    shallow = BraidWord(4, (3,) * m + (1, -1) * m)
    t0 = time.perf_counter()
    assert free_reduce(deep).letters == (3,) * m
    assert free_reduce(shallow).letters == (3,) * m
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5, f"{elapsed:.3f} s"


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
