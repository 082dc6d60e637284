"""The right-invariant total order on braids.

A braid is larger than another when their quotient is positive.  ``sign``
and ``compare`` read positivity from Dynnikov coordinates (Dynnikov, Russ.
Math. Surveys 57 (2002); Dehornoy-Dynnikov-Rolfsen-Wiest, *Ordering Braids*,
AMS 2008, ch. XII; Dehornoy, Discrete Appl. Math. 156 (2008)).  The disk has
the n strands' punctures plus one dummy puncture at each end, matching the
endpoints ``_0`` and ``_{n+1}`` of the cutting sequences, so a braid on n
strands has n pairs (a_j, b_j), j = 1..n, all (0, 1) for the identity.  The
generator sigma_i (or its inverse) changes the pairs i and i + 1 by one
max/min-plus update, so a word of length L costs O(n + L^2) bit operations:
the entries have O(L) bits.  Sign rule: if every pair is (0, 1) the braid is
trivial; otherwise take the first pair i that is not, and the braid is
i-positive when a_i > 0 and i-negative when a_i < 0.  An i-positive braid
is a word in sigma_i..sigma_{n-1}, which leaves the pairs before i alone,
so the first changed pair names the index.  A changed pair with a_i = 0
contradicts the rule and raises ``RewriteError`` instead of guessing.
``compare(a, b)`` is the sign of ``a * b^-1``.

``compare_sequences`` decides the same order directly from two reduced
cutting sequences, by comparing how the two diagrams first branch apart.
The test suite keeps the cutting-sequence sign (``cutseq.sign_of``) as the
referee of the coordinate route.
"""

from __future__ import annotations

import enum

from .cutseq import (
    DOWN,
    UP,
    CuttingSequence,
    RewriteError,
    _reduce_letters,
    is_reduced,
    puncture_walk,
)
from .geometry import AmbiguityError
from .words import BraidWord, SignResult, WordError


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _act(c: list[int], k: int) -> None:
    """Let the letter k act in place on c = [a_1, b_1, ..., a_n, b_n].

    With x+ = max(x, 0) and x- = min(x, 0), sigma_i maps the pairs
    (a1, b1), (a2, b2) at i, i + 1 to (a1 + b1+ + (b2+ - t)+, b2 - t+) and
    (a2 + b2- + (b1- + t)-, b1 + t+), where t = a1 - b1- - a2 + b2+.  Its
    inverse is sigma_i conjugated by the mirror (a, b) -> (-a, b).
    """
    i = 2 * abs(k) - 2
    s = 1 if k > 0 else -1
    a1, b1, a2, b2 = c[i : i + 4]
    a1, a2 = s * a1, s * a2
    b1p = b1 if b1 > 0 else 0
    b2p = b2 if b2 > 0 else 0
    t = a1 - (b1 - b1p) - a2 + b2p
    tp = t if t > 0 else 0
    u, v = b2p - t, b1 - b1p + t
    c[i : i + 4] = (
        s * (a1 + b1p + (u if u > 0 else 0)),
        b2 - tp,
        s * (a2 + b2 - b2p + (v if v < 0 else 0)),
        b1 + tp,
    )


def _coordinates(w: BraidWord) -> list[int]:
    """The Dynnikov coordinates of the braid, as [a_1, b_1, ..., a_n, b_n]."""
    c = [0, 1] * w.n
    for k in w.letters:
        _act(c, k)
    return c


def _coordinate_sign(c: list[int]) -> SignResult:
    """The sign rule of the module docstring, read from the coordinates."""
    for j in range(0, len(c), 2):
        if c[j] > 0:
            return SignResult("positive", j // 2 + 1)
        if c[j] < 0:
            return SignResult("negative", j // 2 + 1)
        if c[j + 1] != 1:
            raise RewriteError(f"pair {j // 2 + 1} changed but has a = 0")
    return SignResult("trivial")


def sign(w: BraidWord) -> SignResult:
    """Positivity of the braid: trivial, or i-positive/negative."""
    return _coordinate_sign(_coordinates(w))


def compare(a: BraidWord, b: BraidWord) -> Ordering:
    """Total order via the quotient: a > b iff a * b^-1 is positive."""
    if a.n != b.n:
        raise WordError(f"strand count mismatch: {a.n} vs {b.n}")
    result = _coordinate_sign(_coordinates(a * b.inverse()))
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
    # The ray back along the shared arrival is the arriving step's ray turned
    # by a half turn; at the start of the walk it points west, into the
    # boundary, as after an eastward step.
    back = mod - (_ray(pa[d - 1], mod) if d > 0 else 0)
    phi_a = (_ray(pa[d], mod) - back) % (2 * mod)
    phi_b = (_ray(pb[d], mod) - back) % (2 * mod)
    if phi_a == phi_b:
        raise AmbiguityError("indistinguishable departures in an order walk")
    return Ordering.GREATER if phi_a > phi_b else Ordering.LESS
