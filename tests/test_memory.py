"""The unchecked builder makes instances of the constructor's size.

``words._unchecked`` builds the words and sequences that the library
derives from checked ones.  A ``BraidWord`` or a ``CuttingSequence`` it
builds must hold as many bytes as one from the constructor: writing the
instance ``__dict__`` instead of the attributes would give up CPython's
inline attribute values.  Each measurement builds 1,000 instances, each
with a fresh letters tuple of 24 letters or more, and counts the bytes
that tracemalloc sees come back when they are dropped.  Counting what
comes back, and not what the build takes, leaves out what the build's
passing objects leave behind in CPython's free lists; and a tuple of 20
letters or more is freed, never kept in one.
"""

import gc
import random
import tracemalloc

import pytest

from braidorder import BraidWord, CuttingSequence, format_sequence, parse_sequence, parse_word
from braidorder.cutseq import word_to_cutseq
from braidorder.words import format_word, free_reduce

COUNT = 1_000
N = 5
LENGTH = 24


def released_bytes(build):
    """The bytes per instance that the instances of ``build()`` give back
    when dropped, and their strand counts and letters as plain lists."""
    gc.disable()  # a full collection empties free lists, which is traced
    tracemalloc.start()
    try:
        kept = build()
        assert len(kept) == COUNT
        contents = [(x.n, list(x.letters)) for x in kept]
        before = tracemalloc.get_traced_memory()[0]
        del kept
        return (before - tracemalloc.get_traced_memory()[0]) / COUNT, contents
    finally:
        tracemalloc.stop()
        gc.enable()


def assert_constructor_size(cls, build):
    """``build()``'s instances of ``cls`` hold within 8 bytes of what
    constructor-built ones with the same letters hold."""
    got, contents = released_bytes(build)
    assert all(len(letters) >= LENGTH for _, letters in contents)
    want, _ = released_bytes(lambda: [cls(n, tuple(letters)) for n, letters in contents])
    assert abs(got - want) <= 8, (got, want)


@pytest.mark.parametrize("route", ["parse_word", "free_reduce", "inverse", "product"])
def test_a_derived_word_holds_the_bytes_of_a_constructed_one(route):
    rng = random.Random(route)
    # positive letters only, so that free_reduce keeps them all
    words = [BraidWord(N, tuple(rng.randint(1, N - 1) for _ in range(LENGTH)))
             for _ in range(COUNT)]
    texts = [format_word(w) for w in words]
    halves = [(BraidWord(N, w.letters[:12]), BraidWord(N, w.letters[12:])) for w in words]
    builds = {
        "parse_word": lambda: [parse_word(text, N) for text in texts],
        "free_reduce": lambda: [free_reduce(w) for w in words],
        "inverse": lambda: [w.inverse() for w in words],
        "product": lambda: [a * b for a, b in halves],
    }
    assert_constructor_size(BraidWord, builds[route])


@pytest.mark.parametrize("route", ["parse_sequence", "word_to_cutseq"])
def test_a_derived_sequence_holds_the_bytes_of_a_constructed_one(route):
    rng = random.Random(route)
    words = []
    while len(words) < COUNT:  # random words of 8 letters with long images
        w = BraidWord(N, tuple(rng.choice((1, -1)) * rng.randint(1, N - 1) for _ in range(8)))
        words += [w] * (len(word_to_cutseq(w).letters) >= LENGTH)
    texts = [format_sequence(word_to_cutseq(w)) for w in words]
    builds = {
        "parse_sequence": lambda: [parse_sequence(text) for text in texts],
        "word_to_cutseq": lambda: [word_to_cutseq(w) for w in words],
    }
    assert_constructor_size(CuttingSequence, builds[route])
