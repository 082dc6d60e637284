"""Tests for the canonical-word computation.

A canonical word is pinned down by two independent checks: it must present
the same braid as the input (the free-group action decides that), and any
two presentations of one braid must canonicalize to the identical word.
"""

import pytest

from braidorder import (
    braid_equal,
    canonical_form,
    compare,
    parse_word,
    sign,
    word_to_cutseq,
)
from braidorder.canonical import (
    CanonicalError,
    UsefulSubword,
    complexity,
    find_useful_subwords,
    leftmost_useful_subword,
)
from braidorder.cutseq import DOWN, UP, trivial_sequence
from braidorder.order import Ordering
from braidorder.words import format_word, is_sigma_consistent
from conftest import STRAND_REGIMES, insert_identity, random_word


def canon(text, n):
    return format_word(canonical_form(parse_word(text, n)).word)


def test_single_generator_is_its_own_form():
    r = canonical_form(parse_word("1", 2))
    assert format_word(r.word) == "1"
    assert r.iterations == 1
    assert str(r.sign) == "positive i=1"


def test_single_inverse_generator():
    r = canonical_form(parse_word("-1", 2))
    assert format_word(r.word) == "-1"
    assert str(r.sign) == "negative i=1"


def test_trivial_words():
    r = canonical_form(parse_word("", 3))
    assert r.word.letters == ()
    assert r.iterations == 0
    assert str(r.sign) == "trivial"
    assert canonical_form(parse_word("1 -1", 3)).word.letters == ()


def test_conjugate_presentation():
    assert canon("1 2 -1", 3) == "-2 1 2"


def test_canonical_output_is_fixed_point():
    for text, n in [("1 2 -1", 3), ("1 -2", 3), ("-2 -1 2 2 2 -1 2 -1", 3)]:
        first = canonical_form(parse_word(text, n)).word
        again = canonical_form(first).word
        assert again == first


def test_complexity_measures():
    assert complexity(trivial_sequence(3)) == (5, 0)
    assert complexity(word_to_cutseq(parse_word("1", 3))) == (1, 0)
    # no plain numbers at all in the image of sigma_2, so the gap count is 0
    assert complexity(word_to_cutseq(parse_word("2", 3))) == (2, 0)
    assert complexity(word_to_cutseq(parse_word("1 1", 3))) == (1, 1)


def test_find_useful_subwords_on_generator_image():
    # the image of sigma_1 starts _0 ^, so the critical interval is gap 0
    s = word_to_cutseq(parse_word("1", 3))
    subs = find_useful_subwords(s, 0, UP)
    assert len(subs) >= 1
    assert any(u.hole_anchored for u in subs)


def test_find_useful_subwords_checks_shape():
    s = word_to_cutseq(parse_word("1", 3))
    with pytest.raises(ValueError):
        find_useful_subwords(s, 1, UP)  # initial run has length 1, not 2
    with pytest.raises(ValueError):
        find_useful_subwords(s, 0, DOWN)  # the arrow after the run points up


def test_leftmost_useful_subword_prefers_the_puncture_read():
    s = word_to_cutseq(parse_word("1", 3))
    u = leftmost_useful_subword(s, 0, UP)
    assert isinstance(u, UsefulSubword)
    assert u.hole_anchored
    assert u.values == (2, 0)


def test_canonical_equals_input_as_braid(rng):
    for low, high in STRAND_REGIMES:
        for _ in range(150):
            n = rng.randint(low, high)
            word = random_word(rng, n)
            r = canonical_form(word)
            assert braid_equal(r.word, word), word


def test_canonical_is_presentation_invariant(rng):
    for low, high in STRAND_REGIMES:
        for _ in range(100):
            n = rng.randint(low, high)
            word = random_word(rng, n, max_len=8)
            other = insert_identity(rng, insert_identity(rng, word))
            assert canonical_form(word).word == canonical_form(other).word, word


def test_canonical_word_is_sigma_consistent(rng):
    """The output spells its own sign: the smallest generator appears with
    one sign only, matching the sign of the braid."""
    for low, high in STRAND_REGIMES:
        for _ in range(150):
            word = random_word(rng, rng.randint(low, high))
            r = canonical_form(word)
            syntactic = is_sigma_consistent(r.word)
            assert syntactic.kind in ("trivial", "positive", "negative")
            assert syntactic == r.sign == sign(word), word


def test_canonical_respects_order_against_identity(rng):
    for _ in range(60):
        word = random_word(rng, 3)
        r = canonical_form(word)
        c = compare(word, parse_word("", 3))
        if r.sign.kind == "trivial":
            assert c is Ordering.EQUAL
        elif r.sign.kind == "positive":
            assert c is Ordering.GREATER
        else:
            assert c is Ordering.LESS


def test_iteration_cap_raises_cleanly():
    with pytest.raises(CanonicalError):
        canonical_form(parse_word("1 2 -1 -2 1 2", 3), max_iterations=1)
