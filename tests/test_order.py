import pytest

from braidorder import (
    AmbiguityError,
    Ordering,
    compare,
    compare_sequences,
    parse_word,
    sign,
    word_to_cutseq,
)
from braidorder.cutseq import trivial_sequence
from braidorder.words import WordError
from conftest import STRAND_REGIMES, random_word


def w(text, n=3):
    return parse_word(text, n)


def test_ordering_values():
    assert Ordering.LESS.value == -1
    assert Ordering.EQUAL.value == 0
    assert Ordering.GREATER.value == 1


def test_sign_examples():
    assert str(sign(w(""))) == "trivial"
    assert str(sign(w("1"))) == "positive i=1"
    assert str(sign(w("-1 2"))) == "negative i=1"
    assert str(sign(w("1 -2"))) == "positive i=1"
    assert str(sign(w("2 -2"))) == "trivial"
    assert str(sign(w("-2 -3 1 -2 1 3 2", 4))) == "positive i=1"


def test_sign_sees_through_free_identities():
    # the sign is a property of the braid, not of the spelling
    assert str(sign(w("2 1 -1 -2"))) == "trivial"
    assert str(sign(w("1 2 1 -2 -1 -2"))) == "trivial"


def test_order_chain():
    """identity < sigma_1 sigma_2^-1 < sigma_1, by both comparison routes."""
    e, mixed, top = w(""), w("1 -2"), w("1")
    assert compare(e, mixed) is Ordering.LESS
    assert compare(mixed, top) is Ordering.LESS
    assert compare(e, top) is Ordering.LESS
    assert compare(top, mixed) is Ordering.GREATER
    assert compare(mixed, mixed) is Ordering.EQUAL

    se, sm, st = map(word_to_cutseq, (e, mixed, top))
    assert compare_sequences(se, sm) is Ordering.LESS
    assert compare_sequences(sm, st) is Ordering.LESS
    assert compare_sequences(se, st) is Ordering.LESS
    assert compare_sequences(st, sm) is Ordering.GREATER
    assert compare_sequences(sm, sm) is Ordering.EQUAL


def test_compare_requires_same_strands():
    with pytest.raises(WordError):
        compare(w("1", 2), w("1", 3))


def test_compare_sequences_requires_same_strands():
    with pytest.raises(ValueError):
        compare_sequences(trivial_sequence(2), trivial_sequence(3))


def test_compare_sequences_against_nontrivial_prefix_share():
    """Regression: curves sharing a long initial stretch must be ordered by
    where the later divergence points, not just by the first letters."""
    a = w("1 2 1 -2 2 1 -1 -2")
    b = w("1")
    want = compare(a, b)
    got = compare_sequences(word_to_cutseq(a), word_to_cutseq(b))
    assert got is want


def test_compare_sequences_lower_excursion_vs_endpoint():
    """Regression: a dive below the axis that re-emerges past the divergence
    point counts as turning off upward, not downward."""
    a = w("1", 4)
    b = w("2 -2 -3 2 -3 2 1 -3 -3", 4)
    assert compare(a, b) is Ordering.LESS
    got = compare_sequences(word_to_cutseq(a), word_to_cutseq(b))
    assert got is Ordering.LESS


def test_compare_matches_sign_against_identity(rng):
    e3 = w("")
    for _ in range(150):
        word = random_word(rng, 3)
        c = compare(word, e3)
        s = sign(word)
        if s.kind == "trivial":
            assert c is Ordering.EQUAL
        elif s.kind == "positive":
            assert c is Ordering.GREATER
        else:
            assert c is Ordering.LESS


def test_comparison_routes_agree(rng):
    """The word route and the sequence route give the same order."""
    for _ in range(300):
        n = rng.randint(2, 5)
        a = random_word(rng, n)
        b = random_word(rng, n)
        assert compare_sequences(
            word_to_cutseq(a), word_to_cutseq(b)
        ) is compare(a, b)


def test_comparison_routes_agree_on_shared_prefixes(rng):
    """Same, but force long common prefixes to stress the divergence walk."""
    for low, high in STRAND_REGIMES:
        for _ in range(200):
            n = rng.randint(low, high)
            stem = random_word(rng, n, max_len=8)
            a = stem * random_word(rng, n, max_len=4)
            b = stem * random_word(rng, n, max_len=4)
            assert compare_sequences(
                word_to_cutseq(a), word_to_cutseq(b)
            ) is compare(a, b), (a, b)


def test_ambiguity_error_not_raised_on_word_images(rng):
    # every pair of honest word images must be decidable
    for _ in range(100):
        a = random_word(rng, 4)
        b = random_word(rng, 4)
        try:
            compare_sequences(word_to_cutseq(a), word_to_cutseq(b))
        except AmbiguityError as e:  # pragma: no cover
            pytest.fail(f"undecidable pair {a} vs {b}: {e}")
