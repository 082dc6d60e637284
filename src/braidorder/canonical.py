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


from .cutseq import (
    DOWN,
    UP,
    CuttingSequence,
    _act_word,
    _positions,
    _reduce_letters,
    _run_sign,
    initial_hole_run,
    puncture_walk,
    word_to_cutseq,
)
from .words import BraidWord, CanonicalError, SignResult, _setattr, _Value


_SLIDES_PER_CROSSING = 10  # the slide cap: this * (1 + crossings of the first diagram)


def _critical_stretch(s: CuttingSequence) -> tuple[int, int]:
    """(i, direction): ``s`` starts _0.._i ``direction``, the critical
    stretch being the interval (i, i+1).  The straight diagram has no arc to
    slide along, so it raises ``ValueError``."""
    run = initial_hole_run(s)
    if run == len(s.letters):
        raise ValueError("the straight diagram has no useful arc")
    return run - 1, s.letters[run]


def _usable_arcs(s: CuttingSequence, i: int, direction: int):
    """The usable arcs of a sequence starting _0.._i ``direction``, lazily:
    the puncture i's arc first, then each crossing's in sequence order, whose
    positions are found only when asked for.

    An arc is (anchor position, walk), the walk as :func:`puncture_walk`
    reads it: the puncture forward, a crossing of (i, i+1) toward its
    ``direction`` arrow.  It is usable when it reaches a puncture to slide
    (neither i, i+1 nor the far boundary point) without meeting the
    critical stretch again on the way.
    """
    letters = s.letters
    ends = (2 * i, 2 * i + 2, 2 * s.n + 2)
    mid = 2 * i + 1
    walk = puncture_walk(letters, i, +1)
    if walk[-1] not in ends and mid not in walk[2::2]:
        yield i, walk
    for p in _positions(letters, mid):
        walk = puncture_walk(letters, p, 1 if letters[p + 1] == direction else -1)
        if walk[-1] not in ends and mid not in walk[2::2]:
            yield p, walk


def find_useful_subwords(s: CuttingSequence) -> list[tuple[int, tuple]]:
    """All arcs usable for a slide of the nontrivial ``s``, the puncture's
    first: see :func:`_usable_arcs`."""
    return list(_usable_arcs(s, *_critical_stretch(s)))


def leftmost_useful_subword(s: CuttingSequence) -> tuple[int, tuple]:
    """The arc whose anchor sits leftmost on the critical stretch of the
    nontrivial ``s``.

    The puncture-anchored arc, if usable, starts at the stretch's left
    endpoint and wins outright, so it is read first and the crossings are
    read only when it is not usable.  Then the usable crossing arcs are
    ranked by their own walks (see :func:`_turns`).  An empty candidate set
    contradicts the existence of a useful arc for every nontrivial diagram,
    so it raises.
    """
    i, direction = _critical_stretch(s)
    arcs = _usable_arcs(s, i, direction)
    first = next(arcs, None)
    if first is None:
        raise CanonicalError("no useful arc found; the slide argument is violated")
    if first[0] == i:  # the puncture's arc wins outright
        return first
    letters, mod = s.letters, 2 * (s.n + 1)

    def key(arc):
        p, walk = arc
        own = _turns(walk, mod)
        other = _turns(puncture_walk(letters, p, -1 if letters[p + 1] == direction else 1), mod)
        upper, lower = (own, other) if direction == UP else (other, own)
        return [mod - e for e in upper], lower

    return min((first, *arcs), key=key)


def _turns(walk, mod: int) -> list[int]:
    """The turning entry of each arrow along ``walk``: an arrow from x to y
    turns (y - x) % mod through ^ and (x - y) % mod through v.

    ``geometry.occurrence_order`` puts a crossing further left when its
    upper walk's entries, complemented, then its lower walk's are less.  A
    reduced walk's arrows alternate and it stops at its first puncture, so
    no entry list from one interval is a proper prefix of another: the
    least usable arc under that key lies leftmost.  The two top arcs often
    share their own walk; then only the opposite walks tell them apart.
    """
    return [
        (y - x) % mod if a == UP else (x - y) % mod
        for x, a, y in zip(walk[::2], walk[1::2], walk[2::2])
    ]


def emit_slide_word(arc: tuple[int, tuple], s: CuttingSequence) -> BraidWord:
    """The generator word performing the slide along ``arc``, as a
    :class:`BraidWord` on ``s``'s strands; see :func:`_slide_letters`."""
    return BraidWord(s.n, tuple(_slide_letters(arc[1])))


def _slide_letters(walk) -> list[int]:
    """The letters of the slide along the arc ``walk``.

    The far puncture c = ``walk[-1]`` is removed from the line, every
    crossing above it shifts down one value, the arc is read back from c (as
    the crossing below it) to the anchor (as a crossing of its own value) and
    reduced (where the sequence rules only collapse same-direction excursions
    and merge equal neighbors), and each remaining excursion from a to b
    becomes the run of generators between them: positive when it ascends
    above the line or descends below it, inverse in the mirror cases.
    """
    c = walk[-1]
    fragment = _reduce_letters(
        [c - 1, *(x - 2 if x > c else x for x in walk[-2:0:-1]), walk[0] | 1]
    )
    letters: list[int] = []
    for j in range(1, len(fragment), 2):
        a, arrow, b = fragment[j - 1] >> 1, fragment[j], fragment[j + 1] >> 1
        run = range(a + 1, b + 1) if a < b else range(a, b, -1)
        letters.extend(run if (arrow == UP) == (a < b) else (-k for k in run))
    if not letters:
        raise CanonicalError("slide word came out empty")
    return letters


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


class CanonicalResult(_Value):
    __match_args__ = ("word", "sign", "iterations")

    def __init__(self, word: BraidWord, sign: SignResult, iterations: int):
        _setattr(self, "word", word)
        _setattr(self, "sign", sign)
        _setattr(self, "iterations", iterations)


def canonical_form(w: BraidWord) -> CanonicalResult:
    """The canonical word equal to ``w``, with its sign and the slide count.

    Repeatedly slides the leftmost useful arc's puncture until the diagram is
    straight, accumulating the slide words; the inverse of the accumulated
    word is the canonical form.  Each slide word acts on the diagram as a
    whole word (``cutseq._act_word``), which checks every generator's
    result once.  Every slide must strictly drop the diagram's
    complexity, and the iteration cap is a safety valve only: hitting either
    guard is a bug worth reporting, not an expected outcome.
    """
    chi = word_to_cutseq(w)
    # a checked sequence holds exactly n + 2 holes; the rest are arrows and
    # crossings
    letters = chi.letters
    crossings = len(letters) - letters.count(UP) - letters.count(DOWN) - (chi.n + 2)
    max_iterations = _SLIDES_PER_CROSSING * (1 + crossings)
    slides: list[int] = []
    iterations = 0
    before = complexity(chi)  # each slide's result is the next one's start
    result_sign = _run_sign(letters, before[0])  # j = n + 2 = len(letters) when straight
    while not chi.is_trivial():
        if iterations >= max_iterations:
            raise CanonicalError(f"no convergence after {iterations} slides (a bug)")
        _, walk = leftmost_useful_subword(chi)
        v = _slide_letters(walk)
        chi = _act_word(chi, v)
        after = complexity(chi)
        if not _less_complex(after, before):
            raise CanonicalError(
                f"slide did not simplify: complexity {before} -> {after} (a bug)"
            )
        slides.extend(v)
        iterations += 1
        before = after
    word = BraidWord(w.n, tuple(-k for k in reversed(slides)))
    return CanonicalResult(word, result_sign, iterations)
