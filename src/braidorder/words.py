"""Braid words over the twist generators: values, text form, free reduction,
and the package's error classes.

A word is a sequence of nonzero integers: the letter k > 0 is the positive
half-twist of strands k and k+1, and -k is its inverse.  The empty word is
the identity braid.  Strings are labeled by their starting position, 1..n.
"""

from __future__ import annotations

import functools
import operator
import re


# The largest strand count accepted anywhere.  The trivial diagram alone
# holds n + 2 letters, so a larger count is refused up front instead of
# being allocated.
MAX_STRANDS = 10_000


class WordError(ValueError):
    """A braid word, or its textual form, is malformed."""


# The other modules' errors live here too, so that the command line maps
# every error to its exit code without importing the modules that raise them.
class InvalidSequenceError(ValueError):
    """The letters do not form a structurally well-formed cutting sequence."""


class RewriteError(RuntimeError):
    """The generator action produced a malformed sequence: an internal bug."""


class AmbiguityError(ValueError):
    """The comparison walks cannot decide: no disjoint realization exists."""


class CanonicalError(RuntimeError):
    """The slide loop contradicted an invariant; always a bug, never data."""


def _check_strands(n, error: type[ValueError]) -> None:
    """Refuse a strand count that is not an int in 2..MAX_STRANDS, raising ``error``."""
    if type(n) is not int:  # a bool or a float would slip past the range
        raise error(f"not an integer strand count: {_brief(n)}")
    if not 2 <= n <= MAX_STRANDS:
        raise error(f"strand count {_brief(n)} out of range 2..{MAX_STRANDS}")


_new, _setattr = object.__new__, object.__setattr__  # bound once: a build costs a fifth less


class _Value:
    """An immutable value of the fields named in ``__match_args__``: equal
    only within its class, hashed and shown by its fields, which only
    ``object.__setattr__`` writes.  Without ``__slots__``, pickle and
    ``copy`` restore them through ``__dict__``, not ``__setattr__``."""

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._values = operator.attrgetter(*cls.__match_args__)  # a tuple: two fields or more

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {_brief(name)}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {_brief(name)}")


class BraidWord(_Value):
    """A word in the twist generators of the braid group on ``n`` strands."""

    __match_args__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[int, ...] = ()):
        # Only words built from outside are checked here: parse_word, and
        # free_reduce, inverse and * on checked words, build theirs by
        # _unchecked.
        _check_strands(n, WordError)
        letters = tuple(letters)
        top = n - 1
        # a plain loop: screening with set(map(type, ...)), min and max
        # took 2-3 times as long on words of 4 to 100 letters.  The check
        # costs 1.5 us on 10 letters and 3.2 us on 40, _unchecked about
        # 0.4 us (CPython 3.11, Intel Xeon).
        for k in letters:
            if type(k) is not int:  # a bool would pass as 1, a float reach sign
                raise WordError(f"not an integer letter: {_brief(k)}")
            if k == 0 or abs(k) > top:
                raise WordError(f"letter {_brief(k)} out of range for {n} strands")
        _setattr(self, "n", n)
        _setattr(self, "letters", letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.n != other.n:
            raise WordError(f"strand count mismatch: {self.n} vs {other.n}")
        return _unchecked(BraidWord, self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return _unchecked(BraidWord, self.n, tuple(-k for k in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


def _unchecked(cls, n: int, letters: tuple[int, ...]):
    """A ``cls`` (``BraidWord`` or ``CuttingSequence``) of a strand count and
    letters known valid, without the constructor's check.  ``_setattr`` keeps
    the attributes inline, where writing ``__dict__`` would add a dict."""
    obj = _new(cls)
    _setattr(obj, "n", n)
    _setattr(obj, "letters", letters)
    return obj


class SignResult(_Value):
    """Positivity classification of a braid or a word.

    ``kind`` is one of "positive", "negative", "trivial", "inconsistent"
    (only the tests' syntactic check of a word, in ``tests/referee.py``,
    yields "inconsistent"); ``index`` is the relevant generator index,
    absent for trivial/inconsistent results.
    """

    __match_args__ = ("kind", "index")

    def __init__(self, kind: str, index: int | None = None):
        _setattr(self, "kind", kind)
        _setattr(self, "index", index)

    def __str__(self) -> str:
        if self.index is None:
            return self.kind
        return f"{self.kind} i={self.index}"


# A number is ASCII digits without a leading zero, so a letter ("-" and a
# number) or a sequence token has one text form: int() would also take
# "+1", "1_0", "01" and other scripts' digits.
_NUMERAL = re.compile(r"0|[1-9][0-9]*")


def _brief(x, show=repr) -> str:
    """``show(x)`` for an error message, cut so that a message stays short
    whatever the input: an int past 20 digits shows as its bit length (CPython
    will not convert one past 4,300 digits); any other value whose text (a
    string itself, else its repr) passes 20 characters, or whose ``show(x)``
    passes 42, as the repr of its first 20 characters cut at 42 (20 printable
    characters take at most that, an escape up to 10) and its length."""
    if type(x) is int and not -(10**20) < x < 10**20:
        return f"{'-' if x < 0 else ''}<{abs(x).bit_length()}-bit number>"
    text = x if type(x) is str else repr(x)
    if type(x) is int or len(text) <= 20 and len(show(x)) <= 42:
        return show(x)
    return f"{repr(text[:20])[:42]}... ({len(text)} characters)"


# Texts on more strands use the table of this many, so their letters of
# this index and up take the full route: at most 63 tables are built, with
# 4,032 spellings in all.
_TABLE_STRANDS = 64


@functools.cache
def _spellings(n: int) -> dict[str, int]:
    """The letters valid on n strands, keyed by their one text form."""
    return {str(k): k for j in range(1, n) for k in (j, -j)}


def parse_letters(text: str) -> tuple[int, ...]:
    """The signed indices of whitespace-separated letters ("1 -2"): each
    token checked against ``_NUMERAL`` and read by ``int()``."""
    tokens = text.split()
    for token in tokens:
        if not _NUMERAL.fullmatch(token.removeprefix("-")):
            raise WordError(f"not an integer letter: {_brief(token)}")
    try:
        return tuple(map(int, tokens))
    except ValueError:  # more than int()'s 4,300 digits
        raise WordError(f"letter out of range for any strand count up to {MAX_STRANDS}") from None


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices ("1 -2").

    The empty string is the identity.  Inverse of :func:`format_word`.
    A token's spelling decides its syntax, type and range at once.  A text
    with a token not in the table (a fault, or a letter of index 64 or
    more) takes the full route, :func:`parse_letters` and then
    ``BraidWord``'s check, so its faults are reported in that order.
    """
    try:
        _check_strands(strands, WordError)
    except WordError:
        parse_letters(text)  # a malformed letter is reported first
        raise
    table = _spellings(strands if strands < _TABLE_STRANDS else _TABLE_STRANDS)
    letters = tuple(map(table.get, text.split()))
    if None in letters:
        return BraidWord(strands, parse_letters(text))
    return _unchecked(BraidWord, strands, letters)


def format_word(w: BraidWord) -> str:
    """Signed indices separated by single spaces; identity is the empty string."""
    return " ".join(str(k) for k in w.letters)


def free_reduce(w: BraidWord) -> BraidWord:
    """A shorter word of the same braid: letter pairs k ... -k cancel when
    every letter left between them commutes with k.

    Rule: reading left to right, a letter k cancels against the last
    remaining letter -k before it when every remaining letter in between has
    an index j with |j - |k|| >= 2 (those commute with k, so the pair meets
    and cancels).  Cancellations cascade, as in "2 1 -1 -2".  The result is
    never longer, is idempotent, and is the same braid.

    Per index, a stack holds the positions of the remaining letters; the
    letter that could block k is the last remaining one of index |k| - 1,
    |k| or |k| + 1, so each letter is decided from three stack tops, in
    O(L + n) for L letters.
    """
    letters = w.letters
    keep = [True] * len(letters)
    stacks: list[list[int]] = [[] for _ in range(w.n + 1)]
    for j, k in enumerate(letters):
        a = abs(k)
        same = stacks[a]
        if same:
            p = same[-1]
            below, above = stacks[a - 1], stacks[a + 1]
            if (
                letters[p] == -k
                and not (below and below[-1] > p)
                and not (above and above[-1] > p)
            ):
                same.pop()
                keep[p] = keep[j] = False
                continue
        same.append(j)
    return _unchecked(BraidWord, w.n, tuple(k for k, kept in zip(letters, keep) if kept))
