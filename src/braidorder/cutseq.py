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

Letter encoding: ``CuttingSequence.letters`` is a tuple of ints on the
doubled grid.  The puncture k is ``2k`` (even), a crossing of (k, k+1) is
``2k + 1`` (odd), and the arrows are ``UP = -1`` and ``DOWN = -2``.  So in a
sequence a letter is an arrow when negative, and a number's value on the
real axis is half of it, with ``x >> 1`` its k.  The order walk also strips
punctures of their underline; a stripped puncture ``2k`` is ``~2k`` =
``-2k - 1``, odd and at most -3 (only punctures k >= 1 are stripped).  It
occurs only in the lists the walk reduces, never in a ``CuttingSequence``.
"""

from __future__ import annotations

import dataclasses

from .words import MAX_STRANDS, BraidWord, SignResult, free_reduce

UP = -1
DOWN = -2
_TOKENS = {"^": UP, "v": DOWN}
_MAX_DIGITS = len(str(MAX_STRANDS + 1))  # of the largest value, hole n + 1


class InvalidSequenceError(ValueError):
    """The letters do not form a structurally well-formed cutting sequence."""


class RewriteError(RuntimeError):
    """The generator action produced a malformed sequence: an internal bug."""


def _check_strands(n: int) -> None:
    if not 2 <= n <= MAX_STRANDS:
        raise InvalidSequenceError(f"strand count {n} out of range 2..{MAX_STRANDS}")


def _check_well_formed(n: int, letters) -> None:
    """Enforce the three structural conditions: endpoints, unique punctures,
    alternation of numbers and arrows (with value-adjacent hole pairs allowed).
    """
    _check_strands(n)
    top = 2 * n + 2
    if not letters or letters[0] != 0:
        raise InvalidSequenceError("sequence must start with _0")
    if letters[-1] != top:
        raise InvalidSequenceError(f"sequence must end with _{n + 1}")
    seen: set[int] = set()
    for x in letters:
        if type(x) is not int or x < DOWN:
            raise InvalidSequenceError(f"not a cutting-sequence letter: {x!r}")
        if x < 0:
            continue
        if x & 1:
            if x > top:
                raise InvalidSequenceError(f"gap value {x >> 1} out of range 0..{n}")
        elif x > top:
            raise InvalidSequenceError(f"hole value {x >> 1} out of range 0..{n + 1}")
        elif x in seen:
            raise InvalidSequenceError(f"hole {x >> 1} occurs more than once")
        else:
            seen.add(x)
    missing = [k for k in range(n + 2) if 2 * k not in seen]
    if missing:
        raise InvalidSequenceError(f"missing holes: {missing}")
    for a, b in zip(letters, letters[1:]):
        if a < 0 and b < 0:
            raise InvalidSequenceError("two adjacent arrows")
        if a >= 0 and b >= 0 and (a & 1 or b & 1 or abs(a - b) != 2):
            raise InvalidSequenceError(
                f"adjacent numbers {_format_letter(a)} {_format_letter(b)} "
                "must be holes with adjacent values"
            )


@dataclasses.dataclass(frozen=True)
class CuttingSequence:
    """An immutable, structurally checked cutting sequence on n strands."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        letters = tuple(self.letters)
        _check_well_formed(self.n, letters)
        object.__setattr__(self, "letters", letters)

    def __str__(self) -> str:
        return format_sequence(self)

    def is_trivial(self) -> bool:
        # every hole occurs once, so n + 2 letters are holes only
        return len(self.letters) == self.n + 2


def trivial_sequence(n: int) -> CuttingSequence:
    """The sequence of the identity braid: _0 _1 ... _{n+1}."""
    _check_strands(n)
    return CuttingSequence(n, tuple(range(0, 2 * n + 3, 2)))


def parse_sequence(text: str, n: int | None = None) -> CuttingSequence:
    """Parse the ASCII encoding.  Without ``n``, infer it from the final hole."""
    letters: list[int] = []
    known = dict(_TOKENS)  # a sequence repeats few distinct tokens: check each once
    for token in text.split():
        x = known.get(token)
        if x is None:
            hole = token.startswith("_")
            digits = token[1:] if hole else token
            # ASCII digits only: int() would also take signs, "_" separators
            # and other scripts' digits, so one sequence would have many
            # spellings; for the same reason a number has no leading zero
            if not (digits.isascii() and digits.isdigit()) or (
                digits[0] == "0" and len(digits) > 1
            ):
                raise InvalidSequenceError(f"bad token: {token!r}")
            if len(digits) > _MAX_DIGITS:  # and before int() refuses it
                raise InvalidSequenceError(
                    f"bad token: {token!r}: value out of range for any strand count"
                    f" up to {MAX_STRANDS}"
                )
            k = int(digits)
            x = known[token] = 2 * k if hole else 2 * k + 1
        letters.append(x)
    if n is None:
        if not letters or letters[-1] < 0 or letters[-1] & 1:
            raise InvalidSequenceError("cannot infer strand count: no final hole")
        n = (letters[-1] >> 1) - 1
    return CuttingSequence(n, tuple(letters))


def format_sequence(s: CuttingSequence) -> str:
    return " ".join(_format_letter(x) for x in s.letters)


def _format_letter(x: int) -> str:
    if x < 0:
        return "^" if x == UP else "v"
    return str(x >> 1) if x & 1 else f"_{x >> 1}"


def puncture_walk(letters, pos: int, step: int):
    """The letters from ``pos`` to the first puncture after it in direction
    ``step`` (+1 or -1), both included, in walking order.  Arrows, crossings
    and stripped punctures are passed; both ends of a sequence are punctures,
    so the walk always stops."""
    j = pos + step
    while letters[j] < 0 or letters[j] & 1:
        j += step
    return letters[pos : j + 1] if step > 0 else letters[j : pos + 1][::-1]


# --- reduction -------------------------------------------------------------
#
# Four families of length-3 rewrites, each shrinking the word:
#   absorption:  a crossing next to a puncture of value k or k+1 (through one
#                arrow) pulls into the puncture:   _k ^ k -> _k   etc.
#   collapse:    same-direction excursions around one crossing merge:
#                v k v -> v,  ^ k ^ -> ^
#                (a stripped puncture of an order walk fires this rule only)
#   merge:       equal crossings through one arrow merge:  k ^ k -> k
#   straighten:  the arrow between value-adjacent punctures drops:
#                _k ^ _{k+1} -> _k _{k+1}
#
# Applied leftmost-innermost to a fixpoint.  The result is independent of the
# application order (asserted by a randomized-order test), so the scan order
# only fixes which intermediate words appear.


def _try_rule(a: int, b: int, c: int) -> list[int] | None:
    """Return the replacement for the window (a, b, c), or None."""
    if b == UP or b == DOWN:
        if a < 0 or c < 0:  # an arrow or a stripped puncture
            return None
        d = a - c
        if d == 1 or d == -1:  # absorption: a puncture and a crossing
            return [c if a & 1 else a]
        if d == 0:  # merge of two crossings; a puncture occurs only once
            return [a] if a & 1 else None
        if (d == 2 or d == -2) and not a & 1:  # straighten
            return [a, c]
        return None
    if a == c and (a == UP or a == DOWN) and b & 1:  # collapse
        return [a]
    return None


def _reduce_letters(letters) -> list[int]:
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
# The inverse generator is the same pass with ^ and v swapped.


def apply_generator(s: CuttingSequence, i: int, sign: int = 1) -> CuttingSequence:
    """The reduced sequence of the braid of ``s`` multiplied by generator
    ``i`` (``sign`` +1) or its inverse (``sign`` -1).

    ``s`` must be reduced, and this is not checked again here: pass a
    sequence made by :func:`trivial_sequence` or by this function, or reduce
    one from outside first.  Sequences from outside are checked where they
    enter (the ``CuttingSequence`` constructor, :func:`parse_sequence`,
    ``validate``, ``compare_sequences``, ``occurrence_order``).
    """
    if not 1 <= i <= s.n - 1:
        raise ValueError(f"generator index {i} out of range 1..{s.n - 1}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")

    up, down = (UP, DOWN) if sign > 0 else (DOWN, UP)
    # the holes i and i+1, the crossings of (i-1, i), (i, i+1) and (i+1, i+2)
    low, high = 2 * i, 2 * i + 2
    below, mid, above = 2 * i - 1, 2 * i + 1, 2 * i + 3
    letters = s.letters
    out: list[int] = []
    for pos, x in enumerate(letters):
        if x != low and x != high and x != mid:
            out.append(x)
            continue
        # never first or last: the first letter is _0 (i >= 1) and the last
        # is _{n+1} (i <= n-1), so both neighbors exist
        left, right = letters[pos - 1], letters[pos + 1]
        if x == low:
            # detours around the hole that changes value i -> i+1
            if left == down:
                out += [below, up]
            elif left == low - 2:
                out.append(up)
            out.append(high)
            if right == down:
                out += [up, below]
            elif right == low - 2:
                out.append(up)
        elif x == high:
            # detours around the hole that changes value i+1 -> i
            if left == up:
                out += [above, down]
            elif left == high + 2:
                out.append(down)
            out.append(low)
            if right == up:
                out += [down, above]
            elif right == high + 2:
                out.append(down)
        elif left == down and right == up:
            out += [below, up, mid, down, above]
        elif left == up and right == down:
            out += [above, down, mid, up, below]
        else:
            raise RewriteError(f"crossing of ({i}, {i + 1}) not flanked by opposite arrows")

    try:
        # The constructor's check is the one guard per generator.  It checks
        # the reduced result, which is what is returned; a malformation that
        # reduction removes (a crossing absorbed into a neighbouring
        # puncture) leaves a well-formed sequence, whose value the test
        # suite's independent routes check.
        return CuttingSequence(s.n, tuple(_reduce_letters(out)))
    except InvalidSequenceError as e:
        # the rewrite table missed a context; never continue silently
        raise RewriteError(f"generator action broke the sequence: {e}") from e


def word_to_cutseq(w: BraidWord) -> CuttingSequence:
    """Let the word act letter by letter on the trivial sequence, after
    cancelling the letter pairs :func:`words.free_reduce` finds: the reduced
    sequence is a braid invariant, so the shorter word gives the same one."""
    s = trivial_sequence(w.n)
    for k in free_reduce(w).letters:
        s = apply_generator(s, abs(k), 1 if k > 0 else -1)
    return s


def initial_hole_run(s: CuttingSequence) -> int:
    """Length of the maximal initial run of holes (their values are 0,1,2,...)."""
    run = 0
    for x in s.letters:
        if x < 0 or x & 1:
            break
        run += 1
    return run


def sign_of(s: CuttingSequence) -> SignResult:
    """Positivity of the braid encoded by the reduced sequence ``s``.

    The maximal initial run of holes _0.._k says the first k curves are
    straight; the letter after the run is the first excursion arrow, and its
    direction decides: up means positive, down means negative, with index k+1.
    ``s`` must be reduced, as :func:`word_to_cutseq` makes it; this is not
    checked again here.
    """
    run = initial_hole_run(s)
    if run == len(s.letters):
        return SignResult("trivial")
    nxt = s.letters[run]
    if nxt == UP:
        return SignResult("positive", run)
    if nxt == DOWN:
        return SignResult("negative", run)
    raise RewriteError("a number directly follows the hole run")  # unreachable
