"""Handle reduction, the referee of ``tests/referee.py`` that scales to long
words: its known steps, and seeded differentials against ``sign``,
``compare`` and ``braid_equal``."""

import functools
import random

import pytest

from braidorder import BraidWord, Ordering, SignResult, braid_equal, compare, parse_word, sign
from conftest import insert_identity, random_word
from referee import handle_reduce, handle_sign

ORDERINGS = {"positive": Ordering.GREATER, "trivial": Ordering.EQUAL, "negative": Ordering.LESS}


def letters(text):
    return tuple(map(int, text.split()))


@pytest.mark.parametrize(
    "word, reduced",
    [
        ("1 2 -1", "-2 1 2"),  # sigma_2 becomes sigma_2^-1 sigma_1 sigma_2
        ("-1 2 1", "2 1 -2"),
        ("1 -2 -1", "-2 -1 2"),
        ("1 3 -1", "3"),  # a letter two indices up only commutes
        ("2 1 -2", "2 1 -2"),  # sigma_1 inside: no handle
        ("1 1 -2 3", "1 1 -2 3"),
        ("2 -3 1 3 -3", "2 -3 1"),  # the handle that closes first goes first
    ],
)
def test_known_handles(word, reduced):
    assert handle_reduce(letters(word)) == letters(reduced)


@pytest.mark.parametrize(
    "relator, steps",
    [("1 -1", 1), ("1 2 -2 -1", 2), ("1 3 -1 -3", 2), ("1 2 1 -2 -1 -2", 4),
     ("2 1 2 -1 -2 -1", 4), ("2 3 2 -3 -2 -3", 4)],
)
def test_a_relator_reduces_to_the_empty_word_in_its_steps(relator, steps):
    assert handle_reduce(letters(relator)) == ()
    assert handle_reduce(letters(relator), max_steps=steps) == ()
    with pytest.raises(RuntimeError, match=f"handle reduction passed {steps - 1} steps"):
        handle_reduce(letters(relator), max_steps=steps - 1)


def test_the_step_cap_raises_instead_of_running_on():
    word = letters("1 2 1 -2 -1 -2") * 50
    with pytest.raises(RuntimeError, match="passed 10 steps"):
        handle_reduce(word, max_steps=10)
    assert handle_reduce(word) == ()


def test_handle_sign_reads_the_lowest_index():
    assert handle_sign(parse_word("", 3)) == SignResult("trivial")
    assert handle_sign(parse_word("2 1 -2", 3)) == SignResult("positive", 1)
    assert handle_sign(parse_word("1 -1 -2 3 -2", 4)) == SignResult("negative", 2)
    assert handle_sign(parse_word("1 2 -1 -2 -2", 3)) == SignResult("positive", 1)


def test_handle_sign_agrees_with_sign_on_long_random_words():
    rng = random.Random(1)
    for j in range(200):
        n = (3, 4, 6, 10)[j % 4]
        w = random_word(rng, n, max_len=400, min_len=10)
        assert handle_sign(w) == sign(w), (n, str(w))


def test_handle_reduction_agrees_with_braid_equal_and_compare_on_scrambled_pairs():
    # each pair is a word and a copy with a trivial chunk put in for every
    # eight letters; in every other pair one letter of the copy is inverted
    rng = random.Random(1)
    equal = 0
    for j in range(100):
        n = (3, 4, 6, 10)[j % 4]
        a = random_word(rng, n, max_len=200, min_len=10)
        b = a
        for _ in range(len(a) // 8 + 1):
            b = insert_identity(rng, b)
        if j % 2:
            p = rng.randrange(len(b))
            b = BraidWord(n, b.letters[:p] + (-b.letters[p],) + b.letters[p + 1 :])
        quotient = a * b.inverse()
        assert (handle_reduce(quotient.letters) == ()) == braid_equal(a, b), (str(a), str(b))
        assert ORDERINGS[handle_sign(quotient).kind] == compare(a, b), (str(a), str(b))
        equal += braid_equal(a, b)
    assert equal == 50


def test_compare_is_transitive_and_right_invariant_on_long_words():
    # three random words sorted by compare must be in order pairwise, and
    # stay so with a fourth word appended; the handle sign of each
    # comparison's quotient referees its answer
    rng = random.Random(1)

    def refereed(a, b):
        answer = compare(a, b)
        assert ORDERINGS[handle_sign(a * b.inverse()).kind] is answer, (str(a), str(b))
        return answer

    for _ in range(40):
        n = rng.randint(3, 10)
        a, b, c, d = (random_word(rng, n, max_len=200, min_len=10) for _ in range(4))
        by_compare = functools.cmp_to_key(lambda x, y: compare(x, y).value)
        low, mid, high = sorted((a, b, c), key=by_compare)
        assert refereed(low, mid) is refereed(mid, high) is Ordering.LESS
        assert refereed(low, high) is Ordering.LESS
        assert refereed(low * d, high * d) is Ordering.LESS
