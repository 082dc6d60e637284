"""The left-consistent canonical word of a braid.

A nontrivial braid's diagram has a first curve that deviates from straight.
One puncture can always be slid back along a "useful" arc of that curve - an
arc running from the critical stretch of the real axis to some other puncture
without touching the critical stretch in between.  Each slide strictly
simplifies the diagram, and the generator word of the slide is read off the
arc's shape.  Undoing the whole stack of slides spells the canonical word.
It is sigma-consistent (the smallest occurring generator appears with only
one sign), and it is the same word for every word of the braid; many other
sigma-consistent words present the same braid.
"""

from __future__ import annotations

import dataclasses

from .cutseq import (
    UP,
    CuttingSequence,
    _reduce_letters,
    apply_generator,
    initial_hole_run,
    puncture_walk,
    word_to_cutseq,
    sign_of,
)
from .geometry import occurrence_order
from .words import BraidWord, SignResult


class CanonicalError(RuntimeError):
    """The slide loop contradicted an invariant; always a bug, never data."""


@dataclasses.dataclass(frozen=True)
class UsefulSubword:
    """One candidate slide arc, stored from its far puncture end inward.

    ``values`` runs from the terminating puncture a_l down to the anchor
    value i; ``arrows`` are the excursions between consecutive values;
    ``hole_anchored`` marks the arc that starts at the puncture i itself
    (always the leftmost candidate); ``anchor`` is the anchor letter's
    position in the sequence.
    """

    values: tuple[int, ...]
    arrows: tuple[int, ...]
    hole_anchored: bool
    anchor: int


def find_useful_subwords(
    s: CuttingSequence, i: int, direction: int
) -> list[UsefulSubword]:
    """All arcs usable for a slide, for a sequence starting _0.._i ``direction``.

    Each crossing of (i, i+1) is read toward its ``direction`` arrow, and the
    puncture i is read forward; a read is usable when it reaches a puncture
    without meeting another crossing of (i, i+1) on the way, the puncture it
    reaches is neither i+1 nor the far boundary point (there is no puncture
    to slide there), and so encodes an arc back to the critical stretch.
    """
    letters = s.letters
    run = initial_hole_run(s)
    if run != i + 1 or run >= len(letters) or letters[run] != direction:
        arrow = "^" if direction == UP else "v"
        raise ValueError(f"sequence does not start _0.._{i} {arrow}")
    out = []
    hole_read = _read_arc(s, i, +1, i)
    if hole_read is not None:
        out.append(
            UsefulSubword(hole_read[0], hole_read[1], hole_anchored=True, anchor=i)
        )
    for p, x in enumerate(letters):
        if x == 2 * i + 1:
            step = 1 if letters[p + 1] == direction else -1
            read = _read_arc(s, p, step, i)
            if read is not None:
                out.append(
                    UsefulSubword(read[0], read[1], hole_anchored=False, anchor=p)
                )
    return out


def _read_arc(s, pos, step, i):
    """Walk from the anchor at ``pos`` until the first puncture; return
    (values from the puncture back to the anchor, arrows likewise) or None
    if the walk is unusable."""
    walk = puncture_walk(s.letters, pos, step)
    if walk[-1] in (2 * i, 2 * i + 2, 2 * s.n + 2):
        return None
    if 2 * i + 1 in walk[2::2]:
        return None  # meets the critical stretch again
    return tuple(x >> 1 for x in walk[::-2]), walk[-2::-2]


def leftmost_useful_subword(
    s: CuttingSequence, i: int, direction: int
) -> UsefulSubword:
    """The candidate whose anchor sits leftmost on the critical stretch.

    The puncture-anchored arc, if usable, starts at the stretch's left
    endpoint and wins outright; otherwise the crossings' real-line order
    decides.  An empty candidate set contradicts the existence of a useful
    arc for every nontrivial diagram, so it raises.
    """
    candidates = find_useful_subwords(s, i, direction)
    if not candidates:
        raise CanonicalError("no useful arc found; the slide argument is violated")
    for u in candidates:
        if u.hole_anchored:
            return u
    by_anchor = {u.anchor: u for u in candidates}
    for p in occurrence_order(s, i):
        if p in by_anchor:
            return by_anchor[p]
    raise CanonicalError("candidate anchors missing from the occurrence order")


def emit_slide_word(u: UsefulSubword, s: CuttingSequence) -> BraidWord:
    """The generator word performing the slide along ``u``.

    The far puncture c is removed from the line, every crossing value at or
    above c shifts down one, the arc is reduced as a fragment of crossings
    and arrows (where the sequence rules only collapse same-direction
    excursions and merge equal neighbors), and each remaining excursion
    becomes a run of generators: ascending upper runs are positive, their
    mirrors inverse, per the four-case table below.
    """
    c = u.values[0]
    # the final anchor value stays untouched
    values = [v - 1 if v >= c else v for v in u.values[:-1]] + [u.values[-1]]
    fragment = [2 * values[0] + 1]
    for arrow, v in zip(u.arrows, values[1:]):
        fragment += [arrow, 2 * v + 1]
    fragment = _reduce_letters(fragment)
    letters: list[int] = []
    for j in range(1, len(fragment), 2):
        a, arrow, b = fragment[j - 1] >> 1, fragment[j], fragment[j + 1] >> 1
        if arrow == UP and a < b:
            letters.extend(range(a + 1, b + 1))
        elif arrow == UP:
            letters.extend(-k for k in range(a, b, -1))
        elif a < b:
            letters.extend(-k for k in range(a + 1, b + 1))
        else:
            letters.extend(range(a, b, -1))
    if not letters:
        raise CanonicalError("slide word came out empty")
    return BraidWord(s.n, tuple(letters))


def complexity(s: CuttingSequence) -> tuple[int, int]:
    """(j, m): the first curve j that deviates from straight, and the number
    of crossings of the interval (j-1, j) it runs through.  The straight
    diagram gets the sentinel (n+2, 0).  Smaller j means MORE complex; the
    pair ordering is reverse-lexicographic in j, then ordinary in m.
    """
    run = initial_hole_run(s)
    if run == len(s.letters):
        return (s.n + 2, 0)
    j = run
    m = s.letters.count(2 * j - 1)  # the crossings of (j-1, j)
    return (j, m)


def _less_complex(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] > b[0] or (a[0] == b[0] and a[1] < b[1])


@dataclasses.dataclass(frozen=True)
class CanonicalResult:
    word: BraidWord
    sign: SignResult
    iterations: int


def canonical_form(w: BraidWord, max_iterations: int | None = None) -> CanonicalResult:
    """The canonical word equal to ``w``, with its sign and the slide count.

    Repeatedly slides the leftmost useful arc's puncture until the diagram is
    straight, accumulating the slide words; the inverse of the accumulated
    word is the canonical form.  Every slide must strictly drop the diagram's
    complexity, and the iteration cap is a safety valve only: hitting either
    guard is a bug worth reporting, not an expected outcome.
    """
    chi = word_to_cutseq(w)
    result_sign = sign_of(chi)
    if max_iterations is None:
        crossings = sum(1 for x in chi.letters if x > 0 and x & 1)
        max_iterations = 10 * (1 + crossings)
    slides: list[int] = []
    iterations = 0
    while not chi.is_trivial():
        if iterations >= max_iterations:
            raise CanonicalError(f"no convergence after {iterations} slides (a bug)")
        run = initial_hole_run(chi)
        i = run - 1
        direction = chi.letters[run]
        u = leftmost_useful_subword(chi, i, direction)
        v = emit_slide_word(u, chi)
        before = complexity(chi)
        for k in v.letters:
            chi = apply_generator(chi, abs(k), 1 if k > 0 else -1)
        after = complexity(chi)
        if not _less_complex(after, before):
            raise CanonicalError(
                f"slide did not simplify: complexity {before} -> {after} (a bug)"
            )
        slides.extend(v.letters)
        iterations += 1
    word = BraidWord(w.n, tuple(-k for k in reversed(slides)))
    return CanonicalResult(word, result_sign, iterations)
