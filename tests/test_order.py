import random

import pytest

from braidorder import (
    AmbiguityError,
    BraidWord,
    Ordering,
    RewriteError,
    compare,
    compare_sequences,
    parse_word,
    sign,
    word_to_cutseq,
)
from braidorder import order
from braidorder.cutseq import sign_of, trivial_sequence
from braidorder.words import WordError
from conftest import STRAND_REGIMES, identity_chunk, random_word


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


# --- the Dynnikov coordinate route against its referees ---------------------


def test_generator_maps_are_mutual_inverses(rng):
    for _ in range(2000):
        n = rng.randint(2, 10)
        c = [rng.randint(-60, 60) for _ in range(2 * n)]
        k = rng.randint(1, n - 1)
        for first in (k, -k):
            d = list(c)
            order._act(d, first)
            order._act(d, -first)
            assert d == c, (c, first)


def test_sign_matches_the_cutting_sequence_sign(rng):
    for low, high in STRAND_REGIMES:
        for _ in range(300):
            word = random_word(rng, rng.randint(low, high))
            assert sign(word) == sign_of(word_to_cutseq(word)), word


def test_changed_pair_with_zero_a_raises_rewrite_error(monkeypatch):
    # the second pair differs from (0, 1) with a = 0: the sign rule says
    # nothing, so the route must refuse instead of guessing
    monkeypatch.setattr(order, "_coordinates", lambda word: [0, 1, 0, 3, 1, 1])
    with pytest.raises(RewriteError, match="pair 2"):
        sign(w("1"))
    with pytest.raises(RewriteError, match="pair 2"):
        compare(w("1"), w(""))


def _consistent_word(rng, n, i, s, length):
    """A word in s * sigma_i and sigma_{i+1}..sigma_{n-1} of both signs, with
    at least one sigma_i: its sign is s at index i by construction."""
    gens = [s * i] + [g for j in range(i + 1, n) for g in (j, -j)]
    letters = [rng.choice(gens) for _ in range(length - 1)]
    letters.insert(rng.randint(0, len(letters)), s * i)
    return BraidWord(n, tuple(letters))


def _rewrite(rng, letters, tries):
    """Random braid moves in place: far letters commute, and a same-sign
    i j i with |i - j| = 1 becomes j i j."""
    for _ in range(tries):
        p = rng.randrange(len(letters) - 2)
        x, y, z = letters[p : p + 3]
        if abs(abs(x) - abs(y)) >= 2:
            letters[p : p + 2] = [y, x]
        elif z == x and abs(abs(x) - abs(y)) == 1 and (x > 0) == (y > 0):
            letters[p : p + 3] = [y, x, y]


def _scramble(rng, word, length):
    """Another spelling of the braid with exactly ``length`` letters (the
    word's length plus an even number): trivial chunks inserted at random
    spots, every one followed by random braid moves."""
    letters = list(word.letters)
    assert length >= len(letters) and (length - len(letters)) % 2 == 0
    while len(letters) < length:
        chunk = identity_chunk(rng, word.n)
        if len(letters) + len(chunk) <= length:
            p = rng.randint(0, len(letters))
            letters[p:p] = chunk
            _rewrite(rng, letters, 4)
    return BraidWord(word.n, tuple(letters))


LONG_LENGTHS = (200, 400, 1000)


@pytest.mark.parametrize("length", LONG_LENGTHS)
def test_sign_of_long_scrambled_consistent_words(length):
    rng = random.Random(length)
    for n in range(3, 11):
        for _ in range(8):
            i = rng.randint(1, n - 1)
            s = rng.choice((1, -1))
            word = _scramble(rng, _consistent_word(rng, n, i, s, length // 2), length)
            kind = "positive" if s > 0 else "negative"
            assert (sign(word).kind, sign(word).index) == (kind, i)


@pytest.mark.parametrize("length", LONG_LENGTHS)
def test_compare_on_long_scrambled_words(length):
    """a = (consistent c) * b, respelled: a against b is the sign of c, and
    a respelled b is equal to b."""
    rng = random.Random(length + 1)
    for n in range(3, 11):
        for _ in range(6):
            i = rng.randint(1, n - 1)
            s = rng.choice((1, -1))
            c = _consistent_word(rng, n, i, s, length // 4)
            b = random_word(rng, n, min_len=length // 4, max_len=length // 4)
            a = _scramble(rng, c * b, length)
            want = Ordering.GREATER if s > 0 else Ordering.LESS
            assert compare(a, b) is want
            assert compare(b, a) is (Ordering.LESS if s > 0 else Ordering.GREATER)
            assert compare(_scramble(rng, b, length), b) is Ordering.EQUAL
