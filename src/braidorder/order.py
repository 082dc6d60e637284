"""The right-invariant total order on braids.

A braid is larger than another when their quotient is positive, i.e. when the
first deviating curve of the quotient's diagram departs into the upper half
plane.  ``compare`` takes that route (one quotient, one sequence, one sign).
``compare_sequences`` decides the same order directly from two reduced
sequences, by comparing how the two diagrams first branch apart.
"""

from __future__ import annotations

import enum

from .cutseq import (
    DOWN,
    UP,
    CuttingSequence,
    _reduce_letters,
    is_reduced,
    puncture_walk,
    sign_of,
    word_to_cutseq,
)
from .geometry import AmbiguityError
from .words import BraidWord, SignResult, WordError


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def sign(w: BraidWord) -> SignResult:
    """Positivity of the braid: trivial, or i-positive/negative."""
    return sign_of(word_to_cutseq(w))


def compare(a: BraidWord, b: BraidWord) -> Ordering:
    """Total order via the quotient: a > b iff a * b^-1 is positive."""
    if a.n != b.n:
        raise WordError(f"strand count mismatch: {a.n} vs {b.n}")
    result = sign_of(word_to_cutseq(a * b.inverse()))
    if result.kind == "positive":
        return Ordering.GREATER
    if result.kind == "negative":
        return Ordering.LESS
    return Ordering.EQUAL


# --- order read directly off two sequences ----------------------------------
#
# Plan: the two curve families agree along a common initial stretch and then
# branch.  To compare them, the punctures visited inside the common stretch
# stop being special (their underlines go away, so the walks may pass and
# cancel through them), both sequences are re-reduced, and each is walked from
# the start to its first remaining puncture.  The walk's record - one turning
# entry per excursion, on the same doubled grid as the geometry module - is
# compared entry by entry.  At the first difference: a lower excursion loses
# to running straight into a puncture, which loses to an upper excursion;
# within a common direction the larger turning entry belongs to the larger
# braid.  Corners the walk cannot decide raise AmbiguityError instead of
# guessing; the suite cross-validates against compare() on random pairs.


def _strip_and_reduce(letters, common: int):
    """Strip the holes before position ``common`` (the leading endpoint keeps
    its underline): a stripped puncture x is stored as ~x, which the reduction
    rules treat like a crossing that only collapses and walks run through.
    Reduce the result with the sequence rules."""
    return _reduce_letters(
        ~x if 0 < p < common and x >= 0 and not x & 1 else x
        for p, x in enumerate(letters)
    )


_EAST = ("flat", 1)
_WEST = ("flat", -1)


def _walk_steps(items, n):
    """Steps of the start curve segment, from the start letter to the first
    puncture after it, inclusive.  A step is either a straight move along the
    axis, ("flat", +-1), or an excursion through the upper or lower half
    plane, (arrow, turning value)."""
    mod = 2 * (n + 1)
    # stripped punctures read as their values; then only arrows are negative
    walk = [~x if x < DOWN else x for x in puncture_walk(items, 0, 1)]
    steps = []
    j = 0
    while j + 1 < len(walk):
        x, nxt = walk[j], walk[j + 1]
        if nxt < 0:
            diff = walk[j + 2] - x
            if nxt == DOWN:
                diff = -diff
            rep = diff % mod
            if rep == 0:
                raise AmbiguityError("zero turning entry in an order walk")
            steps.append((nxt, rep))
            j += 2
        else:
            steps.append(_EAST if nxt > x else _WEST)
            j += 1
    return steps


def _ray(step, mod):
    """The direction a step leaves its start point, as an angle in half-unit
    turns: 0 = east along the axis, (0, mod) = into the upper half plane
    (larger = reaching further, cyclically), mod = west, (mod, 2*mod) = into
    the lower half plane."""
    kind, value = step
    if kind == UP:
        return value
    if kind == DOWN:
        return mod + value
    return 0 if value > 0 else mod


def _back_ray(step, mod):
    """The direction pointing back along an arrived step."""
    kind, value = step
    if kind == UP:
        return mod - value
    if kind == DOWN:
        return 2 * mod - value
    return mod if value > 0 else 0


def compare_sequences(s: CuttingSequence, t: CuttingSequence) -> Ordering:
    """Decide the order of the braids encoded by two reduced sequences.

    Underlines are stripped within the longest common prefix, both sequences
    are reduced again, and each start segment is walked step by step up to
    its first surviving puncture.  At the first differing step the two curves
    part ways; whichever departs further counterclockwise, measured from the
    ray pointing back along the shared arrival, branches off on the upper
    side and is the larger braid.
    """
    if s.n != t.n:
        raise ValueError(f"strand count mismatch: {s.n} vs {t.n}")
    if not is_reduced(s) or not is_reduced(t):
        raise ValueError("input sequences must be reduced")
    if s.letters == t.letters:
        return Ordering.EQUAL
    common = 0
    for x, y in zip(s.letters, t.letters):
        if x != y:
            break
        common += 1
    mod = 2 * (s.n + 1)
    pa = _walk_steps(_strip_and_reduce(s.letters, common), s.n)
    pb = _walk_steps(_strip_and_reduce(t.letters, common), t.n)
    d = next((i for i, (x, y) in enumerate(zip(pa, pb)) if x != y), None)
    if d is None:
        # One walk ending where the other continues would put the same
        # puncture on both sides of the common prefix, which cannot happen;
        # fully identical walks on differing sequences are equally hopeless.
        raise AmbiguityError("sequences differ but their order walks agree")
    # At the start of the walk the ray back along the curve points west,
    # into the boundary.
    back = _back_ray(pa[d - 1], mod) if d > 0 else mod
    phi_a = (_ray(pa[d], mod) - back) % (2 * mod)
    phi_b = (_ray(pb[d], mod) - back) % (2 * mod)
    if phi_a == phi_b:
        raise AmbiguityError("indistinguishable departures in an order walk")
    return Ordering.GREATER if phi_a > phi_b else Ordering.LESS
