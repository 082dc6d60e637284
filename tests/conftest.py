"""Shared test helpers: seeded word sampling and identity-preserving rewrites."""

import random

import pytest

from braidorder import BraidWord, CuttingSequence
from braidorder.cutseq import _reduce_letters, apply_generator, trivial_sequence


# Strand-count ranges of the seeded law tests: the small regime first (its
# draws are those of the tests before the wide one was added), then the wide.
STRAND_REGIMES = ((2, 5), (6, 10))


def random_word(rng, n, max_len=12, min_len=0):
    """A uniform random word on n strands with length in [min_len, max_len]."""
    length = rng.randint(min_len, max_len)
    gens = [k for k in range(1, n)] + [-k for k in range(1, n)]
    return BraidWord(n, tuple(rng.choice(gens) for _ in range(length)))


def identity_chunk(rng, n):
    """A trivial chunk of letters: a cancelling pair, a braid relator, or a
    far commutator, whichever the strand count allows."""
    kinds = ["cancel"]
    if n >= 3:
        kinds.append("relator")
    if n >= 4:
        kinds.append("far")
    kind = rng.choice(kinds)
    if kind == "cancel":
        k = rng.randint(1, n - 1) * rng.choice((1, -1))
        chunk = (k, -k)
    elif kind == "relator":
        i = rng.randint(1, n - 2)
        chunk = (i, i + 1, i, -(i + 1), -i, -(i + 1))
    else:
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 2, n - 1)
        chunk = (i, j, -i, -j)
    return chunk


def insert_identity(rng, w):
    """Insert a trivial chunk (``identity_chunk``) at a random spot."""
    chunk = identity_chunk(rng, w.n)
    pos = rng.randint(0, len(w.letters))
    return BraidWord(w.n, w.letters[:pos] + chunk + w.letters[pos:])


def reduce_sequence(s):
    """Apply the reduction rules to a sequence until none applies."""
    return CuttingSequence(s.n, tuple(_reduce_letters(s.letters)))


def act_letters(w):
    """The sequence of ``w`` by every letter acting in turn on the trivial
    one: ``word_to_cutseq`` without its shortening, so that letters it
    would cancel still reach the generator action."""
    s = trivial_sequence(w.n)
    for k in w.letters:
        s = apply_generator(s, abs(k), 1 if k > 0 else -1)
    return s


@pytest.fixture
def rng():
    return random.Random(20260819)
