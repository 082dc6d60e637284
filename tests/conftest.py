"""Shared test helpers: seeded word sampling, identity-preserving rewrites,
the letter objects the reference implementations read, and a command line
runner."""

import contextlib
import dataclasses
import io
import itertools
import random

import pytest

from braidorder import BraidWord, CuttingSequence
from braidorder.cli import main
from braidorder.cutseq import DOWN, UP, _reduce_letters, apply_generator, trivial_sequence


@dataclasses.dataclass(frozen=True)
class CliResult:
    """What one ``braidorder`` call did.  ``output`` is stdout followed by
    stderr (a call writes to one of them); ``exception`` is the uncaught
    exception, or a ``SystemExit`` for a nonzero exit code."""

    exit_code: int
    output: str
    stdout: str
    stderr: str
    exception: BaseException | None


def run_cli(*args):
    """Run ``braidorder ARGS`` in this process with its streams captured.
    An uncaught exception exits 1, as it would through the interpreter."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except Exception as exc:
            code, exception = 1, exc
    if code and exception is None:
        exception = SystemExit(code)
    stdout, stderr = out.getvalue(), err.getvalue()
    return CliResult(code, stdout + stderr, stdout, stderr, exception)


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


def exponent_sum(w):
    """Letters counted +1 and -1: the abelianization B_n -> Z."""
    return sum(1 if k > 0 else -1 for k in w.letters)


def same_sum_partner(rng, a):
    """A word with a's exponent sum: a letter swapped for another of the same
    sign, a reversed, or a conjugated."""
    kind = rng.randrange(3)
    if kind == 0 and a.letters:
        letters = list(a.letters)
        p = rng.randrange(len(letters))
        sign = 1 if letters[p] > 0 else -1
        letters[p] = sign * rng.randint(1, a.n - 1)
        return BraidWord(a.n, tuple(letters))
    if kind == 1:
        return BraidWord(a.n, a.letters[::-1])
    c = random_word(rng, a.n, max_len=4, min_len=1)
    return c * a * c.inverse()


def reduce_sequence(s):
    """Apply the reduction rules to a sequence until none applies."""
    return CuttingSequence(s.n, tuple(_reduce_letters(s.letters)))


# The reduction rules' families, as with_a_reducible_window names them.
REDUCIBLE_FAMILIES = ("absorption", "collapse", "merge", "straighten")


def with_a_reducible_window(rng, letters, n, family=None):
    """``letters`` with one window of a reduction rule put in: an arrow
    made a collapse (v k v), a crossing a merge (k ^ k), or an arrow put
    between two holes of adjacent values (straighten); or, asked for by
    ``family``, an arrow and a crossing of a neighbouring value put after
    a hole that an arrow follows (absorption: _k ^ k).  ``family`` names
    the rule (absorption needs an arrow in ``letters``); without it one of
    the first three is drawn."""
    if family == "absorption":
        p, x = rng.choice([(p, x) for p, x in enumerate(letters[:-1])
                           if x >= 0 and not x & 1 and letters[p + 1] < 0])
        crossing = x + 1 if x == 0 or rng.random() < 0.5 else x - 1
        return letters[: p + 1] + (rng.choice((UP, DOWN)), crossing) + letters[p + 1 :]
    spots = [(p, x) for p, x in enumerate(letters) if x < 0 or x & 1]
    # two adjacent numbers are holes of adjacent values
    spots += [(p, None) for p in range(1, len(letters)) if min(letters[p - 1 : p + 1]) >= 0]
    if family is not None:
        spots = [(p, x) for p, x in spots
                 if family == ("straighten" if x is None else "collapse" if x < 0 else "merge")]
    p, x = rng.choice(spots)
    if x is None:
        return letters[:p] + (rng.choice((UP, DOWN)),) + letters[p:]
    arrow_or_crossing = 2 * rng.randint(0, n) + 1 if x < 0 else rng.choice((UP, DOWN))
    return letters[:p] + (x, arrow_or_crossing, x) + letters[p + 1 :]


def act_letters(w):
    """The sequence of ``w`` by every letter acting in turn on the trivial
    one: ``word_to_cutseq`` without its shortening, so that letters it
    would cancel still reach the generator action."""
    s = trivial_sequence(w.n)
    for k in w.letters:
        s = apply_generator(s, abs(k), 1 if k > 0 else -1)
    return s


@dataclasses.dataclass(frozen=True)
class Hole:
    k: int


@dataclasses.dataclass(frozen=True)
class Gap:
    k: int


@dataclasses.dataclass(frozen=True)
class Stripped:
    k: int


def as_objects(letters):
    """Puncture 2k -> Hole(k), crossing 2k+1 -> Gap(k), stripped puncture
    ~2k -> Stripped(k); arrows stay."""
    out = []
    for x in letters:
        if x == UP or x == DOWN:
            out.append(x)
        elif x < 0:
            out.append(Stripped(~x >> 1))
        else:
            out.append((Gap if x & 1 else Hole)(x >> 1))
    return out


def as_ints(objects):
    """The library's ints of the letter objects: :func:`as_objects` undone."""
    out = []
    for x in objects:
        if isinstance(x, int):
            out.append(x)
        elif isinstance(x, Stripped):
            out.append(~(2 * x.k))
        else:
            out.append(2 * x.k + isinstance(x, Gap))
    return out


def arcs_cross(coords, letters):
    """Do two arcs on one side cross?  An arc joins the coordinates
    ``coords[p - 1]`` and ``coords[p + 1]`` around the arrow at p."""
    upper, lower = [], []
    for p in range(1, len(letters) - 1):
        x = letters[p]
        if not (x == UP or x == DOWN):
            continue
        ends = sorted((coords[p - 1], coords[p + 1]))
        (upper if x == UP else lower).append(ends)
    for side in (upper, lower):
        for (a, b), (c, d) in itertools.combinations(side, 2):
            if a < c < b < d or c < a < d < b:
                return True
    return False


@pytest.fixture
def rng():
    return random.Random(20260819)
