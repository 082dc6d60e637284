"""Recovering the real-line order of interval crossings, and embeddability.

A reduced cutting sequence does not say in which order multiple crossings of
the same interval (k, k+1) sit on the real axis.  That order is forced by the
requirement that the curves be disjoint: starting at each crossing, walk away
through the upper half plane (and, for ties, the lower one) and compare the
walks' turning behavior.  Exact half-integer arithmetic throughout: the
letters are already on the doubled grid, punctures at even values 2k and
interval crossings at odd values 2k+1 (see :mod:`braidorder.cutseq`).
"""

from __future__ import annotations

import itertools
import struct

from .cutseq import DOWN, UP, CuttingSequence, _require_reduced
from .words import AmbiguityError, _brief, _setattr, _Value

# A walk key is packed as big-endian unsigned 2-byte entries, so keys compare
# as bytes (memcmp) exactly as the entry lists would, prefixes included.  An
# entry lies in 1..mod-1 with mod = 2(n+1), and n <= words.MAX_STRANDS =
# 10,000 gives mod <= 20,002 < 2**16; a larger MAX_STRANDS needs a wider
# format here.  Complementing every byte turns each entry e into 65535 - e,
# which reverses the order of keys without a prefix relation between them.
_ENTRY = ">%dH"
_COMPLEMENT = bytes(range(255, -1, -1))


def _walk_keys(letters, mod: int) -> tuple[list[int], tuple[bytes, ...], bool]:
    """Everything the comparison walks read, in one pass over the letters.

    Returns ``(holes, keys, reduced)``: the positions of the holes, in
    order; four packed arrays of one entry per arrow; and whether no
    reduction rule fires.  The arrow between x and y has the turning
    entry ``e`` of a walk passing it rightwards (y - x through an upper
    arrow, x - y through a lower one, modulo mod = 2(n+1)) and ``mod - e``
    of one passing it leftwards.  ``keys`` holds the rightward entries in
    sequence order, the leftward ones in reverse order, and both again
    complemented.

    A walk from a crossing runs through a hole-free stretch to the nearest
    hole, so its key is a contiguous slice of one of the four arrays.
    Entries a walk reads are never 0 on a reduced sequence: a crossing and
    a hole differ by an odd doubled amount, and two crossings through one
    arrow would have to be equal, which the merge rule removes.

    In well-formed ``letters`` every arrow lies between two numbers, so a
    rule fires exactly at an arrow between numbers at most 1 apart
    (absorption, merge) or holes 2 apart (straighten), or after a crossing
    after an equal arrow (collapse).
    """
    holes, right = [], []
    reduced = True
    for q, x in enumerate(letters):
        if x < 0:
            a = letters[q - 1]
            e = letters[q + 1] - a
            if -2 <= e <= 2 and not (a & 1 and e in (2, -2)) or letters[q - 2] == x and a & 1:
                reduced = False
            right.append(e % mod if x == UP else -e % mod)
        elif not x & 1:
            holes.append(q)
    fmt = _ENTRY % len(right)
    forward = struct.pack(fmt, *right)
    backward = struct.pack(fmt, *[mod - e for e in reversed(right)])
    keys = (forward, backward, forward.translate(_COMPLEMENT), backward.translate(_COMPLEMENT))
    return holes, keys, reduced


def _entries(letters, holes, keys) -> list[tuple[int, bytes, bytes, int]]:
    """``(value, upper, lower, position)`` of every crossing, stretch by
    stretch between consecutive holes.

    ``upper`` is the upper walk's key complemented, ``lower`` the lower
    walk's key.  The upper walk leaves on the side of the ^.
    """
    forward, backward, flipped_forward, flipped_backward = keys
    size = len(forward)
    out = []
    offset = 0  # the bytes of the arrows left of hole lo
    for lo, hi in zip(holes, holes[1:]):
        # the arrow at q sits at byte f + q - 1 of a forward array and at
        # byte r - q - 1 of a backward one
        f, r = offset - lo, size - offset + lo
        offset += (hi - lo) // 2 * 2  # two bytes an arrow; adjacent holes have none
        for p in range(lo + 2, hi, 2):
            if letters[p + 1] == UP:
                upper, lower = flipped_forward[f + p : f + hi], backward[r - p : r - lo]
            else:
                upper, lower = flipped_backward[r - p : r - lo], forward[f + p : f + hi]
            out.append((letters[p], upper, lower, p))
    return out


def _sort_crossings(entries: list[tuple[int, bytes, bytes, int]]) -> list[int]:
    """Positions of the entries' points in real-line order, from their keys.

    Each entry is ``(value, upper, lower, position)`` as :func:`_entries`
    makes them, with the upper key complemented; a hole may come as
    ``(value, b"", b"", position)``.  Sorting ascending by ``(value, upper,
    lower)`` puts the crossings of one interval together and, within it,
    the larger upper walk key first and, on upper ties, the smaller lower
    key first: the pairwise rule of :func:`occurrence_order`.

    The rule is defined for a pair unless one upper key is a proper prefix
    of the other, or the upper keys are equal and one lower key is a prefix
    of (or equal to) the other; such a pair raises :class:`AmbiguityError`.
    Checking the same-value pairs adjacent after the sort is as strong as
    checking all of them: in lexicographic order the keys that start with a
    given key form one contiguous block, so if key i is a prefix of key j,
    every key sorted between them starts with key i too, and the last of
    those equal to key i is followed by one that properly extends it.  The
    same holds for the lower keys among entries with one upper key.  The
    first failing pair in real-line order is reported.
    """
    entries.sort()  # positions break only ties, which raise below
    for (v, u, d, p), (v2, u2, d2, q) in zip(entries, entries[1:]):
        if v != v2:
            continue
        if u != u2:
            if u2.startswith(u):
                raise AmbiguityError("one comparison key is a proper prefix of the other")
        elif d == d2:
            k = v >> 1
            raise AmbiguityError(
                f"crossings of ({k}, {k + 1}) at positions {p} and {q} have identical walks"
            )
        elif d2.startswith(d):
            raise AmbiguityError("one comparison key is a proper prefix of the other")
    return [e[3] for e in entries]


def occurrence_order(s: CuttingSequence, k: int) -> tuple[int, ...]:
    """Positions of the crossings of (k, k+1), leftmost real coordinate first.

    Pairwise rule: the crossing whose upper walk turns more (larger key) lies
    further left; on upper ties the lower walks decide, with the larger key
    lying further right.  Two crossings agreeing on both walks would be two
    curves through the same points, so that raises, and so does a key that
    is a proper prefix of the other, which no embedded diagram produces.

    It is :func:`validate`'s key pass filtered to one interval, and pays
    for that whole pass: O(L) on L letters to pack every arrow's turning
    entries (:func:`_walk_keys`), plus slicing every crossing's keys
    (:func:`_entries`).  The m crossings of (k, k+1) are sorted by their
    keys, compared as bytes, and only adjacent pairs are checked, which is
    as strong as checking all pairs (see :func:`_sort_crossings`).
    """
    if type(k) is not int:  # 1.5 would read a hole's position, True interval 1
        raise ValueError(f"interval must be an int, got {_brief(k)}")
    _require_reduced(s)
    letters = s.letters
    holes, keys, _ = _walk_keys(letters, 2 * (s.n + 1))
    value = 2 * k + 1
    entries = _entries(letters, holes, keys)
    return tuple(_sort_crossings([e for e in entries if e[0] == value]))


class Validation(_Value):
    __match_args__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str | None = None):
        _setattr(self, "ok", ok)
        _setattr(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


def _crossing_arcs(letters, order: list[int], side: int):
    """Two crossing arcs of ``side`` (``UP`` or ``DOWN``) as
    ``((a, b), (c, d))`` with a < c < b < d, or None.

    ``letters`` ends in an extra non-arrow, and ``order`` lists the
    positions of its numbers in real-line order.  One walk along the real
    line keeps the open arcs on a stack, each by its arrow's position: an
    arc is pushed at its left end and popped at its right end when it is on
    top.  An arc's right end is the end with the larger value; on a reduced
    sequence its two ends never share one.  The arcs are nested or disjoint
    exactly when each closing arc is the innermost open one.  At a hole with
    two arcs on this side, closing arcs go first, inner first, then opening
    arcs, outer first.  See :func:`_first_crossing` for the pair reported.
    """
    stack = [None]  # the open arcs, innermost last
    index = None  # position -> real-line index, built when first needed
    for p in order:
        if letters[p + 1] == side:
            q = p + 1
            if letters[p - 1] == side:  # a hole with two arcs on this side
                if stack[-1] == q or stack[-1] == p - 1:  # the inner closing one
                    q = 2 * p - stack.pop()
                else:
                    v, a, b = letters[p], letters[p - 2], letters[p + 2]
                    if a < v or b < v:  # a closing arc that is not on top
                        return _first_crossing(letters, order, stack[1:])
                    if a == b:  # crossings of one interval: their ranks decide
                        if index is None:
                            index = dict(zip(order, itertools.count()))
                        a, b = index[p - 2], index[p + 2]
                    stack.append(p - 1 if a > b else q)  # the outer one
                    q = 2 * p - stack[-1]
        elif letters[p - 1] == side:
            q = p - 1
        else:
            continue
        if stack[-1] == q:
            stack.pop()
        elif letters[2 * q - p] > letters[p]:
            stack.append(q)
        else:
            return _first_crossing(letters, order, stack[1:])
    return None


def _first_crossing(letters, order: list[int], stack: list[int]):
    """The crossing pair of :func:`_crossing_arcs` from its stack of open
    arcs, bottom first, when an arc closes below the top.

    Each arc was pushed while the one below it was the innermost open arc.
    The lowest arc Y that ends further right than the arc X below it is the
    first arc, by left end and then outer first, to cross the innermost arc
    open at its left end; ``(X, Y)`` is reported, each end as its
    coordinate (doubled value, rank among the points of that value on the
    real line).
    """
    index = dict(zip(order, itertools.count()))

    def ends(q: int) -> list[int]:
        return sorted((q - 1, q + 1), key=index.__getitem__)

    def coordinate(p: int) -> tuple[int, int]:
        v = letters[p]
        # a crossing's rank counts from the hole just left of its interval
        return (v, index[p] - index[letters.index(v - 1)] - 1) if v & 1 else (v, 0)

    for x, y in zip(stack, stack[1:]):
        (a, b), (c, d) = ends(x), ends(y)
        if index[b] < index[d]:
            return (coordinate(a), coordinate(b)), (coordinate(c), coordinate(d))
    raise RuntimeError("an arc closed below the top without a crossing pair")


def validate(s: CuttingSequence) -> Validation:
    """Does the sequence come from a family of disjoint embedded curves?

    Checks that (1) an interval flanked by consecutively-visited punctures is
    never crossed, and (2) arcs on the same side of the real axis are nested
    or disjoint, using exact coordinates: (doubled value, rank among the
    crossings of one interval), ranks from the order of
    :func:`occurrence_order`.  Only reduced sequences denote diagrams
    canonically.

    One pass decides reducedness and packs every walk key (as in
    :func:`occurrence_order`).  Every crossing is then sorted once together
    with the holes, which gives each interval's order and the whole real
    line's at once, with only adjacent pairs checked, and each side's arcs
    are checked by one walk along the real line with a stack
    (:func:`_crossing_arcs`): O(L log L) comparisons and O(L) steps for L
    letters, plus slicing the keys, linear in their total length in bytes.
    """
    letters = s.letters
    holes, keys, reduced = _walk_keys(letters, 2 * (s.n + 1))
    if not reduced:
        return Validation(False, "sequence is not reduced")
    crossed = None
    for p, q in zip(holes, holes[1:]):
        if q == p + 1:
            a, b = letters[p] >> 1, letters[q] >> 1
            i = min(a, b)
            if crossed is None:
                crossed = set(letters)
            if 2 * i + 1 in crossed:
                return Validation(
                    False,
                    f"punctures {a} and {b} are joined directly "
                    f"but the interval ({i}, {i + 1}) is crossed",
                )
    points = _entries(letters, holes, keys)
    points += [(letters[h], b"", b"", h) for h in holes]
    try:
        order = _sort_crossings(points)
    except AmbiguityError as e:
        return Validation(False, f"no consistent realization: {e}")
    padded = letters + (0,)  # so the last point has a letter after it
    for side in (UP, DOWN):
        pair = _crossing_arcs(padded, order, side)
        if pair is not None:
            (a, b), (c, d) = pair
            return Validation(
                False,
                f"two {'upper' if side == UP else 'lower'} arcs cross: "
                f"({a}, {b}) and ({c}, {d})",
            )
    return Validation(True)
