"""Braid words over the twist generators, and their elementary invariants.

A word is a sequence of nonzero integers: the letter k > 0 is the positive
half-twist of strands k and k+1, and -k is its inverse.  The empty word is
the identity braid.  Strings are labeled by their starting position, 1..n.
"""

from __future__ import annotations

import dataclasses
import re


# The largest strand count accepted anywhere.  The trivial diagram alone
# holds n + 2 letters, so a larger count is refused up front instead of
# being allocated.
MAX_STRANDS = 10_000


class WordError(ValueError):
    """A braid word, or its textual form, is malformed."""


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the twist generators of the braid group on ``n`` strands."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if not 2 <= self.n <= MAX_STRANDS:
            raise WordError(f"strand count {self.n} out of range 2..{MAX_STRANDS}")
        letters = tuple(self.letters)
        for k in letters:
            if k == 0 or abs(k) > self.n - 1:
                raise WordError(f"letter {k!r} out of range for {self.n} strands")
        object.__setattr__(self, "letters", letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise WordError(f"strand count mismatch: {self.n} vs {other.n}")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-k for k in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


@dataclasses.dataclass(frozen=True)
class SignResult:
    """Positivity classification of a braid or a word.

    ``kind`` is one of "positive", "negative", "trivial", "inconsistent"
    ("inconsistent" only ever comes out of the syntactic word check); ``index``
    is the relevant generator index, absent for trivial/inconsistent results.
    """

    kind: str
    index: int | None = None

    def __str__(self) -> str:
        if self.index is None:
            return self.kind
        return f"{self.kind} i={self.index}"


# A letter is an optional "-" and ASCII digits without a leading zero, so a
# word has one text form: int() would also take "+1", "1_0", "01" and other
# scripts' digits.  On a text of ASCII digits, "-" and whitespace only, int()
# takes exactly the tokens -?[0-9]+, so a leading zero is all that is left to
# refuse; it is searched for only in a text holding a "0".  On 10-40-letter
# words this costs about 1 us, a third of one structured match of the text
# (CPython 3.11, Intel Xeon).
_LETTER = re.compile(r"-?(?:0|[1-9][0-9]*)")
_CHARS = re.compile(r"[-0-9\s]*")
_LEADING_ZERO = re.compile(r"(?<![0-9])0[0-9]")


def parse_letters(text: str) -> tuple[int, ...]:
    """The signed indices of whitespace-separated letters ("1 -2")."""
    if _CHARS.fullmatch(text) and not ("0" in text and _LEADING_ZERO.search(text)):
        try:
            return tuple(map(int, text.split()))
        except ValueError:  # a misplaced "-", or more than 4,300 digits
            pass
    bad = next((t for t in text.split() if not _LETTER.fullmatch(t)), None)
    if bad is None:
        raise WordError(f"letter out of range for any strand count up to {MAX_STRANDS}")
    raise WordError(f"not an integer letter: {bad!r}")


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices ("1 -2").

    The empty string is the identity.  Inverse of :func:`format_word`.
    """
    return BraidWord(strands, parse_letters(text))


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
    return BraidWord(w.n, tuple(k for k, kept in zip(letters, keep) if kept))


def permutation_image(w: BraidWord) -> tuple[int, ...]:
    """The induced permutation of {1..n}: entry s-1 is where string s ends up."""
    pos = list(range(1, w.n + 1))  # pos[p] = label of the string at position p+1
    for k in w.letters:
        j = abs(k) - 1
        pos[j], pos[j + 1] = pos[j + 1], pos[j]
    images = [0] * w.n
    for p, label in enumerate(pos):
        images[label - 1] = p + 1
    return tuple(images)


def crossing_numbers(w: BraidWord) -> dict[tuple[int, int], int]:
    """Algebraic crossing counts c(i, j) for all pairs 1 <= i < j <= n.

    Each crossing of the strings starting at positions i and j contributes
    the sign of the letter that crosses them.
    """
    c = {(i, j): 0 for i in range(1, w.n + 1) for j in range(i + 1, w.n + 1)}
    pos = list(range(1, w.n + 1))
    for k in w.letters:
        j = abs(k) - 1
        a, b = pos[j], pos[j + 1]
        c[(min(a, b), max(a, b))] += 1 if k > 0 else -1
        pos[j], pos[j + 1] = pos[j + 1], pos[j]
    return c


def is_sigma_consistent(w: BraidWord) -> SignResult:
    """Does the smallest occurring generator index appear with only one sign?

    Purely syntactic: "positive i=k" / "negative i=k" if generator k (the
    smallest occurring) is used with a single sign, "trivial" for the empty
    word, "inconsistent" otherwise.
    """
    if not w.letters:
        return SignResult("trivial")
    i = min(abs(k) for k in w.letters)
    signs = {k > 0 for k in w.letters if abs(k) == i}
    if len(signs) == 2:
        return SignResult("inconsistent")
    return SignResult("positive" if signs.pop() else "negative", i)
