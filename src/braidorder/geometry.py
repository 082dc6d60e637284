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

import bisect
import dataclasses

from .cutseq import DOWN, UP, CuttingSequence, _positions, is_reduced


class AmbiguityError(ValueError):
    """The comparison walks cannot decide: no disjoint realization exists."""


def _walk_tables(s: CuttingSequence) -> tuple[list[int], list[int], list[int]]:
    """Everything the comparison walks read, in one pass over the letters.

    Returns ``(right, left, holes)``: for the arrow at q, the turning entry
    ``right[q]`` of a walk passing it rightwards from x to y (y - x through
    an upper arrow, x - y through a lower one, modulo mod = 2(n+1)) and
    ``left[q] = mod - right[q]`` of one passing it leftwards; and the
    positions of the holes, in order.

    A walk from a crossing runs through a hole-free stretch to the nearest
    hole, so its key is a slice of ``right`` or ``left`` between the crossing
    and that hole.  Entries a walk reads are never 0 on a reduced sequence:
    a crossing and a hole differ by an odd doubled amount, and two crossings
    through one arrow would have to be equal, which the merge rule removes.
    """
    letters = s.letters
    mod = 2 * (s.n + 1)
    holes = []
    right = [0] * len(letters)
    for q, x in enumerate(letters):
        if x == UP:
            right[q] = (letters[q + 1] - letters[q - 1]) % mod
        elif x == DOWN:
            right[q] = (letters[q - 1] - letters[q + 1]) % mod
        elif not x & 1:
            holes.append(q)
    left = [mod - e for e in right]
    return right, left, holes


def _crossings(letters, holes: list[int]) -> dict[int, list[tuple[int, int, int]]]:
    """``(position, hole to the left, hole to the right)`` of every crossing,
    grouped by interval.  Between two consecutive holes the letters alternate
    arrow, crossing, ..., arrow, so the crossings sit at every second place."""
    spots: dict[int, list[tuple[int, int, int]]] = {}
    for lo, hi in zip(holes, holes[1:]):
        for p in range(lo + 2, hi, 2):
            spots.setdefault(letters[p] >> 1, []).append((p, lo, hi))
    return spots


def _interval_order(
    s: CuttingSequence,
    right: list[int],
    left: list[int],
    spots: list[tuple[int, int, int]],
    k: int,
) -> tuple[int, ...]:
    """The positions in ``spots`` (crossings of interval k), leftmost first."""
    if len(spots) < 2:
        return tuple(p for p, _, _ in spots)
    entries = []
    for p, lo, hi in spots:
        # the upper walk leaves on the side of the ^; its key is stored with
        # each entry e as mod - e, which is the other reading's slice
        if s.letters[p + 1] == UP:
            entries.append((left[p + 1 : hi : 2], left[p - 1 : lo : -2], p))
        else:
            entries.append((right[p - 1 : lo : -2], right[p + 1 : hi : 2], p))
    return _sort_crossings(entries, k)


def _sort_crossings(entries: list[tuple[list[int], list[int], int]], k: int) -> tuple[int, ...]:
    """Positions of crossings of interval k, leftmost first, from their keys.

    Each entry is ``(upper, lower, position)`` with ``upper`` the upper walk's
    key after every entry e is replaced by mod - e, so that sorting
    ascending by ``(upper, lower)`` puts the larger upper key first and, on
    upper ties, the smaller lower key first: the pairwise rule of
    :func:`occurrence_order`.

    The rule is defined for a pair unless one upper key is a proper prefix
    of the other, or the upper keys are equal and one lower key is a prefix
    of (or equal to) the other; such a pair raises :class:`AmbiguityError`.
    Checking the pairs adjacent after the sort is as strong as checking all
    of them: in lexicographic order the keys that start with a given key
    form one contiguous block, so if key i is a prefix of key j, every key
    sorted between them starts with key i too, and the last of those equal
    to key i is followed by one that properly extends it.  The same holds
    for the lower keys among entries with one upper key.
    """
    entries.sort()  # positions break only ties, which raise below
    for (u, d, p), (u2, d2, q) in zip(entries, entries[1:]):
        if u != u2:
            if u2[: len(u)] == u:
                raise AmbiguityError("one comparison key is a proper prefix of the other")
        elif d == d2:
            raise AmbiguityError(
                f"crossings of ({k}, {k + 1}) at positions {p} and {q} have identical walks"
            )
        elif d2[: len(d)] == d:
            raise AmbiguityError("one comparison key is a proper prefix of the other")
    return tuple(p for _, _, p in entries)


def occurrence_order(s: CuttingSequence, k: int) -> tuple[int, ...]:
    """Positions of the crossings of (k, k+1), leftmost real coordinate first.

    Pairwise rule: the crossing whose upper walk turns more (larger key) lies
    further left; on upper ties the lower walks decide, with the larger key
    lying further right.  Two crossings agreeing on both walks would be two
    curves through the same points, so that raises, and so does a key that
    is a proper prefix of the other, which no embedded diagram produces.

    One pass over the L letters gives every arrow's turning entry in both
    reading directions (:func:`_walk_tables`); each walk's key is then a
    slice of one of those two lists.  The m crossings are sorted once by
    their keys and only adjacent pairs are checked, which is as strong as
    checking all pairs (see :func:`_sort_crossings`): O(L) for the pass and
    O(m log m) key comparisons, plus slicing each key, which costs its
    length, the number of arrows between its crossing and the nearest hole.
    """
    if not is_reduced(s):
        raise ValueError("input sequence must be reduced")
    return _occurrence_order(s, k)


def _occurrence_order(s: CuttingSequence, k: int) -> tuple[int, ...]:
    """:func:`occurrence_order` of a sequence known to be reduced, such as
    one the generator action has just made; reducedness is not checked.

    Only interval k is read: its crossings are found by ``tuple.index``,
    and each one's bracketing holes by bisecting the hole positions.  With
    fewer than two crossings there is nothing to order and no walk table
    is built."""
    positions = _positions(s.letters, 2 * k + 1) if k >= 0 else []
    if len(positions) < 2:
        return tuple(positions)
    right, left, holes = _walk_tables(s)
    spots = []
    for p in positions:
        j = bisect.bisect(holes, p)  # a crossing is never first or last
        spots.append((p, holes[j - 1], holes[j]))
    return _interval_order(s, right, left, spots, k)


@dataclasses.dataclass(frozen=True)
class Validation:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _crossing_arcs(arcs: list[tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Two arcs ``(a, b)``, ``(c, d)`` with a < c < b < d, or None.

    Sweeps the arcs by left end (ties: longer first) with a stack of the open
    arcs, which are nested.  Arcs ending at or before the next left end
    close; the next arc then crosses some open arc exactly when it crosses
    the innermost one, i.e. when that one ends strictly inside it.
    """
    arcs.sort(key=lambda ab: (ab[0], -ab[1]))
    stack: list[tuple[int, int]] = []
    for c, d in arcs:
        while stack and stack[-1][1] <= c:
            stack.pop()
        if stack and stack[-1][1] < d:
            return stack[-1], (c, d)
        stack.append((c, d))
    return None


def validate(s: CuttingSequence) -> Validation:
    """Does the sequence come from a family of disjoint embedded curves?

    Checks that (1) an interval flanked by consecutively-visited punctures is
    never crossed, and (2) arcs on the same side of the real axis are nested
    or disjoint, using exact coordinates: (doubled value, rank among the
    crossings of one interval), ranks from the order of
    :func:`occurrence_order`.  Only reduced sequences denote diagrams
    canonically.

    Reducedness is checked once.  One pass then gives every walk key (as in
    :func:`occurrence_order`), each interval's crossings are sorted once with
    only adjacent pairs checked, and each side's arcs are checked by one
    sweep with a stack (:func:`_crossing_arcs`): O(L log L) comparisons and
    steps for L letters, plus slicing the keys, linear in their total length.
    """
    if not is_reduced(s):
        return Validation(False, "sequence is not reduced")
    letters = s.letters
    right, left, holes = _walk_tables(s)
    spots = _crossings(letters, holes)
    for p, q in zip(holes, holes[1:]):
        if q == p + 1:
            a, b = letters[p] >> 1, letters[q] >> 1
            i = min(a, b)
            if i in spots:
                return Validation(
                    False,
                    f"punctures {a} and {b} are joined directly "
                    f"but the interval ({i}, {i + 1}) is crossed",
                )
    # coordinate (doubled value, rank) packed as doubled * stride + rank
    stride = len(letters)
    coord = [v * stride for v in letters]
    try:
        for k, group in spots.items():
            for rank, p in enumerate(_interval_order(s, right, left, group, k)):
                coord[p] += rank
    except AmbiguityError as e:
        return Validation(False, f"no consistent realization: {e}")
    arcs: dict[int, list[tuple[int, int]]] = {UP: [], DOWN: []}
    for q, x in enumerate(letters):
        if x < 0:
            a, b = coord[q - 1], coord[q + 1]
            arcs[x].append((a, b) if a < b else (b, a))
    for side, side_arcs in arcs.items():
        pair = _crossing_arcs(side_arcs)
        if pair is not None:
            (a, b), (c, d) = [[divmod(x, stride) for x in arc] for arc in pair]
            return Validation(
                False,
                f"two {'upper' if side == UP else 'lower'} arcs cross: "
                f"({a}, {b}) and ({c}, {d})",
            )
    return Validation(True)
