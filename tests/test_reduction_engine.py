"""One reduction engine for sequences, order walks and slide arcs.

``cutseq._reduce_letters`` reduces cutting sequences, the stripped start
segments that ``order.compare_sequences`` walks, and the slide arcs of
``canonical.emit_slide_word``.  The loops it replaced are kept below as
references - the marked-letter reduction of the order walk, the fragment
straightening of the slide arcs and the rule table as it stood before a
stripped puncture could collapse - and seeded inputs must give the same
letters from both.  The references read letters as ``Hole(k)``, ``Gap(k)``
and ``Stripped(k)`` objects and arrows, converted from and to the
library's ints by ``conftest``'s :func:`as_objects` and :func:`as_ints`.
"""

import contextlib
import dataclasses
import itertools
import random

import pytest

from braidorder import BraidWord, CuttingSequence, order, word_to_cutseq
from braidorder.canonical import CanonicalError, emit_slide_word
from braidorder.cutseq import DOWN, UP, _reduce_letters, _try_rule, is_reduced
from braidorder.geometry import AmbiguityError
from conftest import Gap, Hole, Stripped, as_ints, as_objects, random_word

# --- references ----------------------------------------------------------------


def _is_arrow(x):
    return x == UP or x == DOWN


def _reference_try_rule(a, b, c):
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
    if isinstance(b, Gap) and _is_arrow(a) and a == c:
        return [a]
    return None


@dataclasses.dataclass(frozen=True)
class _Marked:
    doubled: int
    underlined: bool


def _mark(letters, strip_below):
    out = []
    for p, x in enumerate(letters):
        if isinstance(x, Hole):
            out.append(_Marked(2 * x.k, p == 0 or p >= strip_below))
        elif isinstance(x, Gap):
            out.append(_Marked(2 * x.k + 1, False))
        else:
            out.append(x)
    return out


def _marked_rule(a, b, c):
    if _is_arrow(b):
        am, cm = isinstance(a, _Marked), isinstance(c, _Marked)
        if not (am and cm):
            return None
        if a.underlined and not c.underlined and abs(a.doubled - c.doubled) == 1:
            return [a]
        if c.underlined and not a.underlined and abs(a.doubled - c.doubled) == 1:
            return [c]
        if not a.underlined and not c.underlined and a.doubled == c.doubled:
            return [a]
        if a.underlined and c.underlined and abs(a.doubled - c.doubled) == 2:
            return [a, c]
        return None
    if isinstance(b, _Marked) and not b.underlined and _is_arrow(a) and a == c:
        return [a]
    return None


def _reduce_marked(items):
    out = list(items)
    i = 0
    while i + 2 < len(out):
        repl = _marked_rule(out[i], out[i + 1], out[i + 2])
        if repl is None:
            i += 1
        else:
            out[i : i + 3] = repl
            i = max(0, i - 2)
    return out


def _straighten(values, arrows):
    changed = True
    while changed:
        changed = False
        for j in range(len(arrows)):
            if values[j] == values[j + 1]:
                del values[j + 1], arrows[j]
                changed = True
                break
        else:
            for j in range(len(arrows) - 1):
                if arrows[j] == arrows[j + 1]:
                    del values[j + 1], arrows[j + 1]
                    changed = True
                    break


def _reference_slide_word(values, arrows, n):
    """The slide word of the arc with ``values`` from its far puncture to
    its anchor and the ``arrows`` between them."""
    values = list(values)
    arrows = list(arrows)
    c = values[0]
    for j in range(len(values) - 1):
        if values[j] >= c:
            values[j] -= 1
    _straighten(values, arrows)
    letters = []
    for j, arrow in enumerate(arrows):
        a, b = values[j], values[j + 1]
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
    return BraidWord(n, tuple(letters))


# --- the engine against them ----------------------------------------------------


def _as_marked(x):
    if isinstance(x, Hole):
        return _Marked(2 * x.k, True)
    if isinstance(x, Gap):
        return _Marked(2 * x.k + 1, False)
    if isinstance(x, Stripped):
        return _Marked(2 * x.k, False)
    return x


def test_rule_table_unchanged_on_sequence_windows():
    alphabet = [Hole(k) for k in range(4)] + [Gap(k) for k in range(4)] + [UP, DOWN]
    for window in itertools.product(alphabet, repeat=3):
        want = _reference_try_rule(*window)
        got = _try_rule(*as_ints(window))
        assert got == (None if want is None else as_ints(want)), window


def random_alternating_sequence(rng, n):
    """A well-formed sequence on n strands: every hole once, in random
    order, with zero to two excursions through random crossings between
    consecutive holes; reduced or not, as it falls."""
    holes = [2 * k for k in range(1, n + 1)]
    rng.shuffle(holes)
    letters = [0]
    for hole in holes + [2 * n + 2]:
        for _ in range(rng.randint(0, 2)):
            letters += [rng.choice((UP, DOWN)), 2 * rng.randint(0, n) + 1]
        letters += [rng.choice((UP, DOWN)), hole]
    return CuttingSequence(n, tuple(letters))


def test_is_reduced_matches_every_window_reference():
    rng = random.Random(5151)
    reduced = 0
    for _ in range(2000):
        s = random_alternating_sequence(rng, rng.randint(2, 5))
        for t in (s, CuttingSequence(s.n, tuple(_reduce_letters(s.letters)))):
            objects = as_objects(t.letters)
            want = all(
                _reference_try_rule(*objects[i : i + 3]) is None for i in range(len(objects) - 2)
            )
            assert is_reduced(t) == want, str(t)
            reduced += want
    assert 2000 < reduced < 3000


def test_stripped_puncture_only_collapses():
    stripped = as_ints([Stripped(2)])[0]
    for arrow in (UP, DOWN):
        assert _try_rule(arrow, stripped, arrow) == [arrow]
        assert _try_rule(arrow, stripped, UP if arrow == DOWN else DOWN) is None
        for other in as_ints([Hole(1), Hole(3), Gap(1), Gap(2), Stripped(3)]):
            assert _try_rule(stripped, arrow, other) is None
            assert _try_rule(other, arrow, stripped) is None


@pytest.mark.parametrize("n", range(2, 9))
def test_stripping_matches_marked_reduction(n, monkeypatch):
    """The segment the order walk reduces, of word images stripped before
    position 1, a random one and the last, is the marked-letter reduction
    of the whole image cut at its first underlined puncture after _0.
    ``compare_sequences`` strips only before positions 1..len-1: both
    sequences start with _0 and end with the one _{n+1}."""
    segments = []

    def recorded(letters):
        segments.append(_reduce_letters(letters))
        return segments[-1]

    monkeypatch.setattr(order, "_reduce_letters", recorded)
    rng = random.Random(7000 + n)
    for _ in range(60):
        letters = word_to_cutseq(random_word(rng, n)).letters
        for common in (1, rng.randint(1, len(letters) - 1), len(letters) - 1):
            with contextlib.suppress(AmbiguityError):  # the segment is reduced first
                order._walk_steps(letters, common, n)
            got = [_as_marked(x) for x in as_objects(segments.pop())]
            want = _reduce_marked(_mark(as_objects(letters), common))
            end = next(i for i, x in enumerate(want[1:], 1) if getattr(x, "underlined", False))
            assert got == want[: end + 1], (letters, common)


def test_slide_fragments_match_straighten():
    rng = random.Random(424243)
    for _ in range(3000):
        arrows = [rng.choice((UP, DOWN)) for _ in range(rng.randint(0, 9))]
        values = [rng.randint(0, 4) for _ in range(len(arrows) + 1)]
        fragment = [Gap(values[0])]
        for arrow, v in zip(arrows, values[1:]):
            fragment += [arrow, Gap(v)]
        fragment = as_objects(_reduce_letters(as_ints(fragment)))
        _straighten(values, arrows)
        assert [x.k for x in fragment[::2]] == values
        assert fragment[1::2] == arrows


def test_slide_words_match_reference():
    rng = random.Random(424244)
    n = 7
    s = word_to_cutseq(BraidWord(n, ()))
    for _ in range(3000):
        arrows = tuple(rng.choice((UP, DOWN)) for _ in range(rng.randint(1, 9)))
        values = tuple(rng.randint(1, 5) for _ in range(len(arrows) + 1))
        # the arc as a walk: from the crossing anchor to the puncture
        walk = [2 * values[0]]
        for arrow, v in zip(arrows, values[1:]):
            walk += [arrow, 2 * v + 1]
        u = (0, tuple(reversed(walk)))
        try:
            want = _reference_slide_word(values, arrows, n)
        except CanonicalError:
            with pytest.raises(CanonicalError):
                emit_slide_word(u, s)
        else:
            assert emit_slide_word(u, s) == want
