"""Cutting sequences: the reduction engine and the generator action.

A braid moves the horizontal diameter of the punctured disk to a family of
curves.  Reading along those curves and writing down every meeting with the
real axis gives a word: an underlined number ``_k`` for the puncture k (with
``_0`` and ``_{n+1}`` the diameter's endpoints on the boundary), a plain
number ``k`` for a transverse crossing of the open interval (k, k+1), and an
arrow for every excursion into the upper (``^``) or lower (``v``) half plane.
The reduced form of this word is a complete invariant of the braid, and the
generators act on it by local rewriting, which is what this module implements:
``word_to_cutseq`` lets a whole word act at once, reducing and checking the
letters after each generator.

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

import functools

from .words import MAX_STRANDS, BraidWord, InvalidSequenceError, RewriteError, SignResult
from .words import _NUMERAL, _TABLE_STRANDS, _brief, _check_strands, _setattr, _unchecked, _Value
from .words import free_reduce

UP = -1
DOWN = -2
_TOKENS = {"^": UP, "v": DOWN}
_MAX_DIGITS = len(str(MAX_STRANDS + 1))  # of the largest value, hole n + 1
_MISSING_LISTED = 8  # holes named in a "missing holes" error


def _check_well_formed(n: int, letters, screened: bool = False) -> None:
    """Enforce the three structural conditions on n strands, a count already
    checked: endpoints, unique punctures, alternation of numbers and arrows
    (with value-adjacent hole pairs allowed).

    One pass over the letters.  Each must be an int in ``DOWN..2n+2``,
    which the pass tests unless ``screened`` says the caller has settled it
    (a spelling table, or the generator action).  A letter's own fault
    raises at once; the first adjacency fault is kept and raised only after
    the missing-holes check, so a sequence with several faults reports the
    one that checking each condition in turn would: endpoints, letters,
    missing holes, adjacency.
    """
    top = 2 * n + 2
    if not letters or letters[0] != 0:
        raise InvalidSequenceError("sequence must start with _0")
    if letters[-1] != top:
        raise InvalidSequenceError(f"sequence must end with _{n + 1}")
    seen: set[int] = set()
    adjacency = None
    prev = UP  # a stand-in before _0: an arrow then a number is no fault
    for x in letters:
        if not screened and (type(x) is not int or not DOWN <= x <= top):
            if type(x) is not int or x < DOWN:
                raise InvalidSequenceError(f"not a cutting-sequence letter: {_brief(x)}")
            kind, last = ("gap", n) if x & 1 else ("hole", n + 1)
            raise InvalidSequenceError(f"{kind} value {_brief(x >> 1)} out of range 0..{last}")
        if x < 0:
            if prev < 0 and adjacency is None:
                adjacency = "two adjacent arrows"
        else:
            if not x & 1:
                if x in seen:
                    raise InvalidSequenceError(f"hole {x >> 1} occurs more than once")
                seen.add(x)
            if prev >= 0 and adjacency is None and (x & 1 or prev & 1 or abs(x - prev) != 2):
                adjacency = (
                    f"adjacent numbers {_format_letter(prev)} {_format_letter(x)} "
                    "must be holes with adjacent values"
                )
        prev = x
    if len(seen) < n + 2:
        missing = [k for k in range(n + 2) if 2 * k not in seen]
        if len(missing) > _MISSING_LISTED:  # n is up to MAX_STRANDS: keep it short
            raise InvalidSequenceError(
                f"missing holes: {len(missing)} of {n + 2}, "
                f"the first {_MISSING_LISTED}: {missing[:_MISSING_LISTED]}"
            )
        raise InvalidSequenceError(f"missing holes: {missing}")
    if adjacency is not None:
        raise InvalidSequenceError(adjacency)


class CuttingSequence(_Value):
    """An immutable, structurally checked cutting sequence on n strands."""

    __match_args__ = ("n", "letters")

    def __init__(self, n: int, letters: tuple[int, ...]):
        _check_strands(n, InvalidSequenceError)
        letters = tuple(letters)
        _check_well_formed(n, letters)
        _setattr(self, "n", n)
        _setattr(self, "letters", letters)

    def __str__(self) -> str:
        return format_sequence(self)

    def is_trivial(self) -> bool:
        # every hole occurs once, so n + 2 letters are holes only
        return len(self.letters) == self.n + 2


def trivial_sequence(n: int) -> CuttingSequence:
    """The sequence of the identity braid: _0 _1 ... _{n+1}."""
    _check_strands(n, InvalidSequenceError)
    return CuttingSequence(n, tuple(range(0, 2 * n + 3, 2)))


@functools.cache
def _spellings(n: int) -> dict[str, int]:
    """The letters valid on n strands, keyed by their one text form."""
    return {_format_letter(x): x for x in (UP, DOWN, *range(2 * n + 3))}


def parse_sequence(text: str) -> CuttingSequence:
    """Parse the ASCII encoding; the strand count is read off the final hole.

    On 2.._TABLE_STRANDS strands a token's spelling decides its syntax,
    type and range at once, and only the structure is checked; any other
    text is read token by token, with the errors in their order.
    """
    tokens = text.split()
    last = _spellings(_TABLE_STRANDS).get(tokens[-1], -1) if tokens else -1
    if last > 4 and not last & 1:  # the hole _3 or a later one
        n = (last >> 1) - 1
        letters = tuple(map(_spellings(n).get, tokens))
        if None not in letters:
            _check_well_formed(n, letters, screened=True)
            return _unchecked(CuttingSequence, n, letters)
    letters = []
    for token in tokens:
        x = _TOKENS.get(token)
        if x is None:
            hole = token.startswith("_")
            digits = token[1:] if hole else token
            if not _NUMERAL.fullmatch(digits):
                raise InvalidSequenceError(f"bad token: {_brief(token)}")
            if len(digits) > _MAX_DIGITS:  # and before int() refuses it
                raise InvalidSequenceError(
                    f"bad token: {_brief(token)}: value out of range for any strand count"
                    f" up to {MAX_STRANDS}"
                )
            k = int(digits)
            x = 2 * k if hole else 2 * k + 1
        letters.append(x)
    if not letters or letters[-1] < 0 or letters[-1] & 1:
        raise InvalidSequenceError("cannot infer strand count: no final hole")
    return CuttingSequence((letters[-1] >> 1) - 1, tuple(letters))


def format_sequence(s: CuttingSequence) -> str:
    return " ".join(_format_letter(x) for x in s.letters)


def _format_letter(x: int) -> str:
    if x < 0:
        return "^" if x == UP else "v"
    return str(x >> 1) if x & 1 else f"_{x >> 1}"


def _positions(letters: tuple[int, ...], x: int) -> list[int]:
    """The positions of ``x`` in ``letters``, ascending, found by the C-level
    ``tuple.count`` and ``tuple.index`` instead of a Python loop per letter."""
    out = []
    p = -1
    for _ in range(letters.count(x)):
        p = letters.index(x, p + 1)
        out.append(p)
    return out


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
#
# A rule can fire on the window (a, b, c) only when a == c (collapse, and a
# merge) or when b is an arrow between numbers at most 2 apart (absorption,
# merge, straighten).  Both scans below test that first, so most windows
# never reach _try_rule.


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


def _reduce_letters(letters, start: int = 0) -> list[int]:
    """The reduced form of ``letters``.  No window left of ``start`` may
    fire on the input: the scan begins there and backs up only past what
    a rule has changed."""
    out = list(letters)
    i = start
    end = len(out) - 2
    while i < end:
        a, b, c = out[i], out[i + 1], out[i + 2]
        if a == c or (b < 0 and -2 <= a - c <= 2):
            repl = _try_rule(a, b, c)
            if repl is not None:
                out[i : i + 3] = repl
                end = len(out) - 2
                i = max(0, i - 2)  # a new window may have opened just to the left
                continue
        i += 1
    return out


def is_reduced(s: CuttingSequence) -> bool:
    letters = s.letters
    for a, b, c in zip(letters, letters[1:], letters[2:]):
        if (a == c or (b < 0 and -2 <= a - c <= 2)) and _try_rule(a, b, c) is not None:
            return False
    return True


def _require_reduced(*seqs: CuttingSequence) -> None:
    """The one refusal of an unreduced input, wherever a reduced one is needed."""
    if not all(map(is_reduced, seqs)):
        raise InvalidSequenceError("input sequence must be reduced")


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
    ``i`` (``sign`` +1) or its inverse (``sign`` -1): the word action of
    one letter.  An unreduced ``s`` raises ``InvalidSequenceError``.
    """
    # True and 1.0 equal 1, so both values' types are checked too
    if type(i) is not int or not 1 <= i <= s.n - 1:
        raise ValueError(f"generator index {_brief(i)} out of range 1..{s.n - 1}")
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {_brief(sign)}")
    _require_reduced(s)
    return _act_word(s, (i if sign > 0 else -i,))


def _act_word(s: CuttingSequence, word) -> CuttingSequence:
    """``s`` (reduced) acted on by the signed generators of ``word`` in
    turn: :func:`apply_generator` letter by letter, with plain letter tuples
    between the letters and one ``CuttingSequence``, the last result.
    Indices are checked where words enter (``BraidWord``,
    :func:`apply_generator`); a slide's runs lie between diagram values.
    Every result is reduced, and its structure checked once by
    :func:`_check_well_formed`; a failed check is the rewrite table's bug
    and raises ``RewriteError``.  Its per-letter type and range test is
    skipped: the rewrite writes only letters of its input and values from
    hole i - 1 to hole i + 2, ints in range for an index in 1..n-1."""
    n = s.n
    letters = s.letters
    for k in word:
        out, start = _rewrite(letters, k if k > 0 else -k, k > 0)
        letters = tuple(_reduce_letters(out, start))
        try:
            # The check covers the reduced result, which is what is kept; a
            # malformation that reduction removes (a crossing absorbed into a
            # neighbouring puncture) leaves a well-formed sequence, whose
            # value the test suite's independent routes check.
            _check_well_formed(n, letters, screened=True)
        except InvalidSequenceError as e:
            # the rewrite table missed a context; never continue silently
            raise RewriteError(f"generator action broke the sequence: {e}") from e
    return _unchecked(CuttingSequence, n, letters) if word else s


def _rewrite(letters: tuple[int, ...], i: int, positive: bool) -> tuple[list[int], int]:
    """The unreduced letters of the generator ``i`` (its inverse unless
    ``positive``) acting on the reduced ``letters``, and the position from
    which the reduction must scan: no window ending before the first
    changed letter can fire."""
    up, down = (UP, DOWN) if positive else (DOWN, UP)
    # the holes i and i+1, the crossings of (i-1, i), (i, i+1) and (i+1, i+2)
    low, high = 2 * i, 2 * i + 2
    below, mid, above = 2 * i - 1, 2 * i + 1, 2 * i + 3
    # the half turn swaps the values of the holes i and i+1, and their detours
    # are mirror images: (new value, arrow toward the other hole, the crossing
    # beside the hole away from the other, arrow back, the next hole that way)
    from_low, from_high = (high, down, below, up, low - 2), (low, up, above, down, high + 2)
    # only the two holes (once each) and the crossings of (i, i+1) change;
    # the runs between them are copied whole
    spots = sorted([letters.index(low), letters.index(high), *_positions(letters, mid)])
    out: list[int] = []
    done = 0
    for pos in spots:
        out += letters[done:pos]
        done = pos + 1
        x = letters[pos]
        # never first or last: the first letter is _0 (i >= 1) and the last
        # is _{n+1} (i <= n-1), so both neighbors exist
        left, right = letters[pos - 1], letters[pos + 1]
        if x != mid:
            new, toward, detour, back, near = from_low if x == low else from_high
            if left == toward:
                out += [detour, back]
            elif left == near:
                out.append(back)
            out.append(new)
            if right == toward:
                out += [back, detour]
            elif right == near:
                out.append(back)
        elif left == down and right == up:
            out += [below, up, mid, down, above]
        elif left == up and right == down:
            out += [above, down, mid, up, below]
        else:
            raise RewriteError(f"crossing of ({i}, {i + 1}) not flanked by opposite arrows")
    out += letters[done:]
    return out, max(0, spots[0] - 2)


def word_to_cutseq(w: BraidWord) -> CuttingSequence:
    """Let the word act letter by letter on the trivial sequence, after
    cancelling the letter pairs :func:`words.free_reduce` finds: the reduced
    sequence is a braid invariant, so the shorter word gives the same one.
    The word acts as a whole (:func:`_act_word`): one check per generator,
    and one ``CuttingSequence``, the result."""
    return _act_word(trivial_sequence(w.n), free_reduce(w).letters)


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
    straight; the letter after the run is the first excursion arrow (a
    crossing there would follow a hole, which a checked sequence refuses),
    and its direction decides: up means positive, down means negative, with
    index k+1.  An unreduced ``s`` raises ``InvalidSequenceError``.
    """
    _require_reduced(s)
    return _run_sign(s.letters, initial_hole_run(s))


def _run_sign(letters, run: int) -> SignResult:
    """The sign read off the arrow after the leading holes _0.._{run-1}, if any."""
    if run == len(letters):
        return SignResult("trivial")
    return SignResult("positive" if letters[run] == UP else "negative", run)
