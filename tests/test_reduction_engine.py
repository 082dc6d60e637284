"""One reduction engine for sequences, order walks and slide arcs.

``cutseq._reduce_letters`` reduces cutting sequences, the stripped sequences
that ``order.compare_sequences`` walks, and the slide arcs of
``canonical.emit_slide_word``.  The loops it replaced are kept below as
references - the marked-letter reduction of the order walk, the fragment
straightening of the slide arcs and the rule table as it stood before a
stripped puncture could collapse - and seeded inputs must give the same
letters from both.  The references read letters as ``Hole(k)``, ``Gap(k)``
and ``_Stripped(k)`` objects and arrows, converted from and to the
library's ints by :func:`as_objects` and :func:`as_ints`.
"""

import dataclasses
import itertools
import random

import pytest

from braidorder import BraidWord, word_to_cutseq
from braidorder.canonical import CanonicalError, UsefulSubword, emit_slide_word
from braidorder.cutseq import DOWN, UP, _reduce_letters, _try_rule
from braidorder.order import _strip_and_reduce
from conftest import random_word

# --- the old letters and the conversion ------------------------------------------


@dataclasses.dataclass(frozen=True)
class Hole:
    k: int


@dataclasses.dataclass(frozen=True)
class Gap:
    k: int


@dataclasses.dataclass(frozen=True)
class _Stripped:
    k: int


def as_objects(letters):
    """Puncture 2k -> Hole(k), crossing 2k+1 -> Gap(k), stripped puncture
    ~2k -> _Stripped(k); arrows stay."""
    out = []
    for x in letters:
        if x == UP or x == DOWN:
            out.append(x)
        elif x < 0:
            out.append(_Stripped(~x >> 1))
        else:
            out.append((Gap if x & 1 else Hole)(x >> 1))
    return out


def as_ints(objects):
    out = []
    for x in objects:
        if isinstance(x, int):
            out.append(x)
        elif isinstance(x, _Stripped):
            out.append(~(2 * x.k))
        else:
            out.append(2 * x.k + isinstance(x, Gap))
    return out


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


def _reference_slide_word(u, n):
    values = list(u.values)
    arrows = list(u.arrows)
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
    if isinstance(x, _Stripped):
        return _Marked(2 * x.k, False)
    return x


def test_rule_table_unchanged_on_sequence_windows():
    alphabet = [Hole(k) for k in range(4)] + [Gap(k) for k in range(4)] + [UP, DOWN]
    for window in itertools.product(alphabet, repeat=3):
        want = _reference_try_rule(*window)
        got = _try_rule(*as_ints(window))
        assert got == (None if want is None else as_ints(want)), window


def test_stripped_puncture_only_collapses():
    stripped = as_ints([_Stripped(2)])[0]
    for arrow in (UP, DOWN):
        assert _try_rule(arrow, stripped, arrow) == [arrow]
        assert _try_rule(arrow, stripped, UP if arrow == DOWN else DOWN) is None
        for other in as_ints([Hole(1), Hole(3), Gap(1), Gap(2), _Stripped(3)]):
            assert _try_rule(stripped, arrow, other) is None
            assert _try_rule(other, arrow, stripped) is None


@pytest.mark.parametrize("n", range(2, 9))
def test_stripping_matches_marked_reduction(n):
    """Word images stripped before 0, 1, a random prefix length and the full
    length reduce to the same letters as under the marked-letter rules."""
    rng = random.Random(7000 + n)
    for _ in range(60):
        letters = word_to_cutseq(random_word(rng, n)).letters
        for strip in (0, 1, rng.randint(0, len(letters)), len(letters)):
            got = [_as_marked(x) for x in as_objects(_strip_and_reduce(letters, strip))]
            want = _reduce_marked(_mark(as_objects(letters), strip))
            assert got == want, (letters, strip)


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
        u = UsefulSubword(values, arrows, hole_anchored=False, anchor=0)
        try:
            want = _reference_slide_word(u, n)
        except CanonicalError:
            with pytest.raises(CanonicalError):
                emit_slide_word(u, s)
        else:
            assert emit_slide_word(u, s) == want
