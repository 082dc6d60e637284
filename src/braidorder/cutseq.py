"""Cutting sequences: the reduction engine and the generator action.

A braid moves the horizontal diameter of the punctured disk to a family of
curves.  Reading along those curves and writing down every meeting with the
real axis gives a word: an underlined number ``_k`` for the puncture k (with
``_0`` and ``_{n+1}`` the diameter's endpoints on the boundary), a plain
number ``k`` for a transverse crossing of the open interval (k, k+1), and an
arrow for every excursion into the upper (``^``) or lower (``v``) half plane.
The reduced form of this word is a complete invariant of the braid, and the
generators act on it by local rewriting, which is what this module implements.

ASCII encoding: tokens ``_k`` (puncture/endpoint), ``k`` (interval crossing),
``^`` (upper excursion), ``v`` (lower excursion), separated by spaces.
"""

from __future__ import annotations

import dataclasses
from typing import Union

from .words import MAX_STRANDS, BraidWord, SignResult


class InvalidSequenceError(ValueError):
    """The letters do not form a structurally well-formed cutting sequence."""


class RewriteError(RuntimeError):
    """The generator action produced a malformed sequence: an internal bug."""


@dataclasses.dataclass(frozen=True)
class Hole:
    """Meeting of the curve with puncture k (1..n), or an endpoint (0, n+1)."""

    k: int


@dataclasses.dataclass(frozen=True)
class Gap:
    """Transverse crossing of the open real interval (k, k+1)."""

    k: int


class Arrow:
    """Excursion into one half plane.  Exactly two instances exist: UP, DOWN."""

    __slots__ = ("token",)

    def __init__(self, token: str):
        self.token = token

    def __repr__(self) -> str:
        return self.token


UP = Arrow("^")
DOWN = Arrow("v")

CutLetter = Union[Hole, Gap, Arrow]


def _is_arrow(x: CutLetter) -> bool:
    return x is UP or x is DOWN


def _flip(x: CutLetter) -> CutLetter:
    if x is UP:
        return DOWN
    if x is DOWN:
        return UP
    return x


def _check_well_formed(n: int, letters: tuple[CutLetter, ...]) -> None:
    """Enforce the three structural conditions: endpoints, unique punctures,
    alternation of numbers and arrows (with value-adjacent hole pairs allowed).
    """
    if not 2 <= n <= MAX_STRANDS:
        raise InvalidSequenceError(f"strand count {n} out of range 2..{MAX_STRANDS}")
    if not letters or not (isinstance(letters[0], Hole) and letters[0].k == 0):
        raise InvalidSequenceError("sequence must start with _0")
    if not (isinstance(letters[-1], Hole) and letters[-1].k == n + 1):
        raise InvalidSequenceError(f"sequence must end with _{n + 1}")
    seen: set[int] = set()
    for x in letters:
        if isinstance(x, Hole):
            if not 0 <= x.k <= n + 1:
                raise InvalidSequenceError(f"hole value {x.k} out of range 0..{n + 1}")
            if x.k in seen:
                raise InvalidSequenceError(f"hole {x.k} occurs more than once")
            seen.add(x.k)
        elif isinstance(x, Gap):
            if not 0 <= x.k <= n:
                raise InvalidSequenceError(f"gap value {x.k} out of range 0..{n}")
        elif not _is_arrow(x):
            raise InvalidSequenceError(f"not a cutting-sequence letter: {x!r}")
    missing = set(range(n + 2)) - seen
    if missing:
        raise InvalidSequenceError(f"missing holes: {sorted(missing)}")
    for a, b in zip(letters, letters[1:]):
        if _is_arrow(a) and _is_arrow(b):
            raise InvalidSequenceError("two adjacent arrows")
        if not _is_arrow(a) and not _is_arrow(b):
            if not (isinstance(a, Hole) and isinstance(b, Hole) and abs(a.k - b.k) == 1):
                raise InvalidSequenceError(
                    f"adjacent numbers {a!r} {b!r} must be holes with adjacent values"
                )


@dataclasses.dataclass(frozen=True)
class CuttingSequence:
    """An immutable, structurally checked cutting sequence on n strands."""

    n: int
    letters: tuple[CutLetter, ...]

    def __post_init__(self):
        letters = tuple(self.letters)
        _check_well_formed(self.n, letters)
        object.__setattr__(self, "letters", letters)

    def __str__(self) -> str:
        return format_sequence(self)

    def is_trivial(self) -> bool:
        return len(self.letters) == self.n + 2 and all(
            isinstance(x, Hole) for x in self.letters
        )


def trivial_sequence(n: int) -> CuttingSequence:
    """The sequence of the identity braid: _0 _1 ... _{n+1}."""
    return CuttingSequence(n, tuple(Hole(k) for k in range(n + 2)))


def parse_sequence(text: str, n: int | None = None) -> CuttingSequence:
    """Parse the ASCII encoding.  Without ``n``, infer it from the final hole."""
    letters: list[CutLetter] = []
    for token in text.split():
        if token == "^":
            letters.append(UP)
        elif token == "v":
            letters.append(DOWN)
        elif token.startswith("_"):
            try:
                letters.append(Hole(int(token[1:])))
            except ValueError:
                raise InvalidSequenceError(f"bad token: {token!r}") from None
        else:
            try:
                letters.append(Gap(int(token)))
            except ValueError:
                raise InvalidSequenceError(f"bad token: {token!r}") from None
    if n is None:
        if not letters or not isinstance(letters[-1], Hole):
            raise InvalidSequenceError("cannot infer strand count: no final hole")
        n = letters[-1].k - 1
    return CuttingSequence(n, tuple(letters))


def format_sequence(s: CuttingSequence) -> str:
    return " ".join(_format_letter(x) for x in s.letters)


def _format_letter(x: CutLetter) -> str:
    if isinstance(x, Hole):
        return f"_{x.k}"
    if isinstance(x, Gap):
        return str(x.k)
    return x.token


# --- reduction -------------------------------------------------------------
#
# Four families of length-3 rewrites, each shrinking the word:
#   absorption:  a crossing next to a puncture of value k or k+1 (through one
#                arrow) pulls into the puncture:   _k ^ k -> _k   etc.
#   collapse:    same-direction excursions around one crossing merge:
#                v k v -> v,  ^ k ^ -> ^
#                (a letter that is neither a Hole nor a Gap, such as the
#                stripped puncture of an order walk, fires this rule only)
#   merge:       equal crossings through one arrow merge:  k ^ k -> k
#   straighten:  the arrow between value-adjacent punctures drops:
#                _k ^ _{k+1} -> _k _{k+1}
#
# Applied leftmost-innermost to a fixpoint.  The result is independent of the
# application order (asserted by a randomized-order test), so the scan order
# only fixes which intermediate words appear.


def _try_rule(a: CutLetter, b: CutLetter, c: CutLetter) -> list[CutLetter] | None:
    """Return the replacement for the window (a, b, c), or None."""
    if _is_arrow(b):
        if isinstance(a, Hole) and isinstance(c, Gap) and a.k in (c.k, c.k + 1):
            return [a]
        if isinstance(a, Gap) and isinstance(c, Hole) and c.k in (a.k, a.k + 1):
            return [c]
        if isinstance(a, Gap) and isinstance(c, Gap) and a.k == c.k:
            return [a]
        if isinstance(a, Hole) and isinstance(c, Hole) and abs(a.k - c.k) == 1:
            return [a, c]
        return None
    if not isinstance(b, Hole) and _is_arrow(a) and a is c:
        return [a]
    return None


def _reduce_letters(letters) -> list[CutLetter]:
    out = list(letters)
    i = 0
    while i + 2 < len(out):
        repl = _try_rule(out[i], out[i + 1], out[i + 2])
        if repl is None:
            i += 1
        else:
            out[i : i + 3] = repl
            i = max(0, i - 2)  # a new window may have opened just to the left
    return out


def reduce(s: CuttingSequence) -> CuttingSequence:
    """Apply the reduction rules until none applies.  Idempotent."""
    return CuttingSequence(s.n, tuple(_reduce_letters(s.letters)))


def is_reduced(s: CuttingSequence) -> bool:
    letters = s.letters
    return all(
        _try_rule(letters[i], letters[i + 1], letters[i + 2]) is None
        for i in range(len(letters) - 2)
    )


# --- generator action -------------------------------------------------------
#
# Acting with the generator i swaps the punctures i and i+1 by a half turn.
# On the sequence this is a single simultaneous pass driven entirely by the
# original letters:
#   * every crossing of (i, i+1) flanked by opposite arrows is rerouted around
#     both punctures:   v i ^  ->  v i-1 ^ i v i+1 ^     (and mirrored),
#   * the two holes swap values, and each independently gains a detour prefix
#     from its left neighbor and a detour suffix from its right neighbor,
#   * arrows and all other letters pass through unchanged.
# The inverse generator is the same pass conjugated by swapping ^ and v.


def _low_hole_prefix(left: CutLetter, i: int) -> list[CutLetter]:
    # detour inserted before the hole that changes value i -> i+1
    if left is DOWN:
        return [Gap(i - 1), UP]
    if isinstance(left, Hole) and left.k == i - 1:
        return [UP]
    return []


def _low_hole_suffix(right: CutLetter, i: int) -> list[CutLetter]:
    if right is DOWN:
        return [UP, Gap(i - 1)]
    if isinstance(right, Hole) and right.k == i - 1:
        return [UP]
    return []


def _high_hole_prefix(left: CutLetter, i: int) -> list[CutLetter]:
    # detour inserted before the hole that changes value i+1 -> i
    if left is UP:
        return [Gap(i + 1), DOWN]
    if isinstance(left, Hole) and left.k == i + 2:
        return [DOWN]
    return []


def _high_hole_suffix(right: CutLetter, i: int) -> list[CutLetter]:
    if right is UP:
        return [DOWN, Gap(i + 1)]
    if isinstance(right, Hole) and right.k == i + 2:
        return [DOWN]
    return []


def apply_generator(s: CuttingSequence, i: int, sign: int = 1) -> CuttingSequence:
    """The reduced sequence of the braid of ``s`` multiplied by generator
    ``i`` (``sign`` +1) or its inverse (``sign`` -1).  ``s`` must be reduced.
    """
    if not 1 <= i <= s.n - 1:
        raise ValueError(f"generator index {i} out of range 1..{s.n - 1}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not is_reduced(s):
        raise ValueError("input sequence must be reduced")

    letters: tuple[CutLetter, ...] = s.letters
    if sign < 0:
        letters = tuple(_flip(x) for x in letters)

    out: list[CutLetter] = []
    for pos, x in enumerate(letters):
        if isinstance(x, Hole) and x.k == i:
            # never first or last: the first letter is _0 (i >= 1) and the
            # last is _{n+1} (i <= n-1), so both neighbors exist
            left, right = letters[pos - 1], letters[pos + 1]
            out += _low_hole_prefix(left, i)
            out.append(Hole(i + 1))
            out += _low_hole_suffix(right, i)
        elif isinstance(x, Hole) and x.k == i + 1:
            left, right = letters[pos - 1], letters[pos + 1]
            out += _high_hole_prefix(left, i)
            out.append(Hole(i))
            out += _high_hole_suffix(right, i)
        elif isinstance(x, Gap) and x.k == i:
            left, right = letters[pos - 1], letters[pos + 1]
            if left is DOWN and right is UP:
                out += [Gap(i - 1), UP, Gap(i), DOWN, Gap(i + 1)]
            elif left is UP and right is DOWN:
                out += [Gap(i + 1), DOWN, Gap(i), UP, Gap(i - 1)]
            else:
                raise RewriteError(
                    f"crossing of ({i}, {i + 1}) not flanked by opposite arrows"
                )
        else:
            out.append(x)

    if sign < 0:
        out = [_flip(x) for x in out]
    try:
        _check_well_formed(s.n, tuple(out))
    except InvalidSequenceError as e:
        # the rewrite table missed a context; never continue silently
        raise RewriteError(f"generator action broke the sequence: {e}") from e
    return CuttingSequence(s.n, tuple(_reduce_letters(out)))


def word_to_cutseq(w: BraidWord) -> CuttingSequence:
    """Let the word act letter by letter on the trivial sequence."""
    s = trivial_sequence(w.n)
    for k in w.letters:
        s = apply_generator(s, abs(k), 1 if k > 0 else -1)
    return s


def initial_hole_run(s: CuttingSequence) -> int:
    """Length of the maximal initial run of holes (their values are 0,1,2,...)."""
    run = 0
    for x in s.letters:
        if not isinstance(x, Hole):
            break
        run += 1
    return run


def sign_of(s: CuttingSequence) -> SignResult:
    """Positivity of the braid encoded by the reduced sequence ``s``.

    The maximal initial run of holes _0.._k says the first k curves are
    straight; the letter after the run is the first excursion arrow, and its
    direction decides: up means positive, down means negative, with index k+1.
    """
    if not is_reduced(s):
        raise ValueError("input sequence must be reduced")
    run = initial_hole_run(s)
    if run == len(s.letters):
        return SignResult("trivial")
    nxt = s.letters[run]
    if nxt is UP:
        return SignResult("positive", run)
    if nxt is DOWN:
        return SignResult("negative", run)
    raise RewriteError("a number directly follows the hole run")  # unreachable
