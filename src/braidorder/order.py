"""The right-invariant total order on braids.

A braid is larger than another when their quotient is positive.  ``sign``,
``compare`` and ``braid_equal`` read positivity from Dynnikov coordinates
(Dynnikov, Russ. Math. Surveys 57 (2002); Dehornoy-Dynnikov-Rolfsen-Wiest,
*Ordering Braids*, AMS 2008, ch. XII; Dehornoy, Discrete Appl. Math. 156
(2008)).  The disk has the n strands' punctures plus one dummy puncture at
each end, matching the endpoints ``_0`` and ``_{n+1}`` of the cutting
sequences, so a braid on n strands has n pairs (a_j, b_j), j = 1..n, all
(0, 1) for the identity.  The generator sigma_i (or its inverse) changes the
pairs i and i + 1 by one max/min-plus update, so a word of length L costs
O(n + L^2) bit operations: the entries have O(L) bits.  Sign rule: if every
pair is (0, 1) the braid is trivial; otherwise take the first pair i that is
not, and the braid is i-positive when a_i > 0 and i-negative when a_i < 0.
An i-positive braid is a word in sigma_i..sigma_{n-1}, which leaves the
pairs before i alone, so the first changed pair names the index.  A changed
pair with a_i = 0 contradicts the rule and raises ``RewriteError`` instead
of guessing.  One loop, ``_act_letters``, applies a whole word to the pairs.
``compare(a, b)`` is the sign of ``a * b^-1``, read by letting a's letters
act and then b's, reversed and negated, without building the quotient word.
``braid_equal(a, b)`` asks whether that sign is trivial: the coordinates are
faithful, so equal coordinates mean equal braids, the same fact ``compare``
relies on for ``EQUAL``.  The free-group action of ``oracle`` stays
independent of all this and referees it in the tests.

``compare_sequences`` decides the same order directly from two reduced
cutting sequences, by comparing how the two diagrams first branch apart.
The test suite keeps the cutting-sequence sign (``cutseq.sign_of``) as the
referee of the coordinate route.
"""

from __future__ import annotations

import enum
import functools
from operator import neg

from .cutseq import (
    DOWN,
    UP,
    CuttingSequence,
    _reduce_letters,
    _require_reduced,
)
from .words import AmbiguityError, BraidWord, InvalidSequenceError, RewriteError, SignResult
from .words import WordError


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def _act_letters(c: list[int], letters) -> None:
    """Let the letters act in turn, in place, on c = [a_1, b_1, ..., a_n, b_n].

    With x+ = max(x, 0) and x- = min(x, 0), sigma_i maps the pairs
    (a1, b1), (a2, b2) at i, i + 1 to (a1 + b1+ + (b2+ - t)+, b2 - t+) and
    (a2 + b2- + (b1- + t)-, b1 + t+), where t = a1 - b1- - a2 + b2+.  Its
    inverse is sigma_i conjugated by the mirror (a, b) -> (-a, b): with
    t = a2 - a1 - b1- + b2+ it maps them to (a1 - b1+ - (b2+ - t)+, b2 - t+)
    and (a2 - b2- - (b1- + t)-, b1 + t+).  Both updates are written out
    inline, one branch per letter sign, since a call per letter would cost
    as much as the update itself.
    """
    for k in letters:
        if k > 0:
            i = 2 * k - 2
            a1 = c[i]
            b1 = c[i + 1]
            a2 = c[i + 2]
            b2 = c[i + 3]
            b1p = b1 if b1 > 0 else 0
            b2p = b2 if b2 > 0 else 0
            t = a1 - b1 + b1p - a2 + b2p
            tp = t if t > 0 else 0
            u = b2p - t
            v = b1 - b1p + t
            c[i] = a1 + b1p + (u if u > 0 else 0)
            c[i + 1] = b2 - tp
            c[i + 2] = a2 + b2 - b2p + (v if v < 0 else 0)
            c[i + 3] = b1 + tp
        else:
            i = -2 * k - 2
            a1 = c[i]
            b1 = c[i + 1]
            a2 = c[i + 2]
            b2 = c[i + 3]
            b1p = b1 if b1 > 0 else 0
            b2p = b2 if b2 > 0 else 0
            t = a2 - a1 - b1 + b1p + b2p
            tp = t if t > 0 else 0
            u = b2p - t
            v = b1 - b1p + t
            c[i] = a1 - b1p - (u if u > 0 else 0)
            c[i + 1] = b2 - tp
            c[i + 2] = a2 - b2 + b2p - (v if v < 0 else 0)
            c[i + 3] = b1 + tp


# One frozen SignResult per kind and index, shared by every answer with
# them: at most 2 * MAX_STRANDS + 1 are ever made.
_shared_result = functools.cache(SignResult)


def _coordinate_sign(c: list[int]) -> SignResult:
    """The sign rule of the module docstring, read from the coordinates."""
    for j in range(0, len(c), 2):
        if c[j] > 0:
            return _shared_result("positive", j // 2 + 1)
        if c[j] < 0:
            return _shared_result("negative", j // 2 + 1)
        if c[j + 1] != 1:
            raise RewriteError(f"pair {j // 2 + 1} changed but has a = 0")
    return _shared_result("trivial")


def sign(w: BraidWord) -> SignResult:
    """Positivity of the braid: trivial, or i-positive/negative."""
    c = [0, 1] * w.n
    _act_letters(c, w.letters)
    return _coordinate_sign(c)


def _quotient_sign(a: BraidWord, b: BraidWord) -> SignResult:
    """The sign of a * b^-1: a's letters act, then b's reversed and negated,
    on the identity's coordinates; no quotient word is built."""
    if a.n != b.n:
        raise WordError(f"strand count mismatch: {a.n} vs {b.n}")
    c = [0, 1] * a.n
    _act_letters(c, a.letters)
    _act_letters(c, map(neg, reversed(b.letters)))
    return _coordinate_sign(c)


_ORDERINGS = {"positive": Ordering.GREATER, "trivial": Ordering.EQUAL, "negative": Ordering.LESS}


def compare(a: BraidWord, b: BraidWord) -> Ordering:
    """Total order via the quotient: a > b iff a * b^-1 is positive."""
    return _ORDERINGS[_quotient_sign(a, b).kind]


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Do the two words represent the same braid?

    The coordinates of a and of b agree exactly when b^-1 takes a's
    coordinates back to the identity's, that is when a * b^-1 is trivial;
    the coordinates are faithful, so that decides equality, with the same
    refusal of a changed pair with a = 0 as :func:`sign`."""
    return _quotient_sign(a, b).kind == "trivial"


# --- order read directly off two sequences ----------------------------------
#
# Plan: the two curve families agree along a common initial stretch and then
# branch.  To compare them, the punctures visited inside the common stretch
# stop being special (their underlines go away, so the walks may pass and
# cancel through them), the start of both sequences is re-reduced, and each is
# walked from the start to its first remaining puncture.  The walk's record -
# one ray per step, from the turning entries on the geometry module's doubled
# grid - is compared ray by ray.  At the first difference: a lower excursion
# loses to running straight into a puncture, which loses to an upper
# excursion; within a common direction the larger turning entry belongs to the
# larger braid.  Corners the walk cannot decide raise AmbiguityError instead
# of guessing; the suite cross-validates against compare() on random pairs.


def _walk_steps(letters, common: int, n: int):
    """The rays of the start curve segment's steps, from ``_0`` to the first
    puncture left after it once the holes before position ``common`` but
    ``_0`` are stripped and the letters reduced.  A stripped puncture x is
    stored as ~x, which the reduction rules treat like a crossing that only
    collapses.  No rule removes an underlined puncture or fires with one in
    the middle of its window, so only the letters up to the first hole at
    or after ``common`` are reduced: they reduce as the whole would, and
    that hole ends the segment.

    A ray is the direction a step leaves its start point, as an angle in
    half-unit turns, with mod = 2(n + 1): 0 = a straight move east along
    the axis, mod = west, the turning entry (in (0, mod), larger = reaching
    further, cyclically) for an excursion into the upper half plane, and
    mod + the entry for one into the lower half plane.  Distinct steps have
    distinct rays."""
    end = common
    while letters[end] < 0 or letters[end] & 1:
        end += 1
    segment = [0] + [x if x < 0 or x & 1 else ~x for x in letters[1:common]]
    segment += letters[common : end + 1]
    mod = 2 * (n + 1)
    # stripped punctures read as their values; then only arrows are negative
    walk = [~x if x < DOWN else x for x in _reduce_letters(segment)]
    rays = []
    j = 0
    while j + 1 < len(walk):
        x, nxt = walk[j], walk[j + 1]
        if nxt < 0:
            rep = (walk[j + 2] - x if nxt == UP else x - walk[j + 2]) % mod
            if rep == 0:
                raise AmbiguityError("zero turning entry in an order walk")
            rays.append(rep if nxt == UP else mod + rep)
            j += 2
        else:
            rays.append(0 if nxt > x else mod)
            j += 1
    return rays


def compare_sequences(s: CuttingSequence, t: CuttingSequence) -> Ordering:
    """Decide the order of the braids encoded by two reduced sequences.

    Underlines are stripped within the longest common prefix, and each start
    segment is reduced again and walked step by step up to its first
    surviving puncture.  At the first differing step the two curves part
    ways; whichever departs further counterclockwise, measured from the
    ray pointing back along the shared arrival, branches off on the upper
    side and is the larger braid.
    """
    if s.n != t.n:
        raise InvalidSequenceError(f"strand count mismatch: {s.n} vs {t.n}")
    _require_reduced(s, t)
    if s.letters == t.letters:
        return Ordering.EQUAL
    common = 0
    for x, y in zip(s.letters, t.letters):
        if x != y:
            break
        common += 1
    mod = 2 * (s.n + 1)
    pa = _walk_steps(s.letters, common, s.n)
    pb = _walk_steps(t.letters, common, t.n)
    d = next((i for i, (x, y) in enumerate(zip(pa, pb)) if x != y), None)
    if d is None:
        # One walk ending where the other continues would put the same
        # puncture on both sides of the common prefix, which cannot happen;
        # fully identical walks on differing sequences are equally hopeless.
        raise AmbiguityError("sequences differ but their order walks agree")
    # The ray back along the shared arrival is the arriving step's ray turned
    # by a half turn; at the start of the walk it points west, into the
    # boundary, as after an eastward step.  The rays at d differ, so the
    # angles measured from it do too.
    back = mod - (pa[d - 1] if d > 0 else 0)
    phi_a = (pa[d] - back) % (2 * mod)
    phi_b = (pb[d] - back) % (2 * mod)
    return Ordering.GREATER if phi_a > phi_b else Ordering.LESS
