"""Tests for the canonical-word computation.

A canonical word is pinned down by two independent checks: it must present
the same braid as the input (the free-group action decides that), and any
two presentations of one braid must canonicalize to the identical word.
"""

import random

import pytest

from braidorder import (
    braid_equal,
    canonical_form,
    compare,
    parse_word,
    sign,
    word_to_cutseq,
)
from braidorder.canonical import (
    CanonicalError,
    complexity,
    find_useful_subwords,
    leftmost_useful_subword,
)
from braidorder import canonical, cutseq
from braidorder.cutseq import (
    UP,
    _check_well_formed,
    initial_hole_run,
    is_reduced,
    puncture_walk,
    trivial_sequence,
)
from braidorder.geometry import occurrence_order
from braidorder.order import Ordering
from braidorder.words import format_word, free_reduce
from conftest import STRAND_REGIMES, insert_identity, random_word
from referee import is_sigma_consistent


def canon(text, n):
    return format_word(canonical_form(parse_word(text, n)).word)


def test_single_generator_is_its_own_form():
    r = canonical_form(parse_word("1", 2))
    assert format_word(r.word) == "1"
    assert r.iterations == 1
    assert str(r.sign) == "positive i=1"


def test_single_inverse_generator():
    r = canonical_form(parse_word("-1", 2))
    assert format_word(r.word) == "-1"
    assert str(r.sign) == "negative i=1"


def test_trivial_words():
    r = canonical_form(parse_word("", 3))
    assert r.word.letters == ()
    assert r.iterations == 0
    assert str(r.sign) == "trivial"
    assert canonical_form(parse_word("1 -1", 3)).word.letters == ()


def test_conjugate_presentation():
    assert canon("1 2 -1", 3) == "-2 1 2"


def test_canonical_output_is_fixed_point():
    for text, n in [("1 2 -1", 3), ("1 -2", 3), ("-2 -1 2 2 2 -1 2 -1", 3)]:
        first = canonical_form(parse_word(text, n)).word
        again = canonical_form(first).word
        assert again == first


def test_complexity_measures():
    assert complexity(trivial_sequence(3)) == (5, 0)
    assert complexity(word_to_cutseq(parse_word("1", 3))) == (1, 0)
    # no plain numbers at all in the image of sigma_2, so the gap count is 0
    assert complexity(word_to_cutseq(parse_word("2", 3))) == (2, 0)
    assert complexity(word_to_cutseq(parse_word("1 1", 3))) == (1, 1)


def hole_anchored(arc):
    """Does the arc (anchor position, walk) start at a puncture?"""
    return arc[1][0] & 1 == 0


def test_find_useful_subwords_on_generator_image():
    # the image of sigma_1 starts _0 ^, so the critical interval is gap 0
    s = word_to_cutseq(parse_word("1", 3))
    subs = find_useful_subwords(s)
    assert len(subs) >= 1
    assert any(hole_anchored(u) for u in subs)


def test_every_arc_is_the_walk_from_its_anchor(rng):
    arcs = crossing_arcs = 0
    for _ in range(300):
        s = word_to_cutseq(random_word(rng, rng.randint(2, 8), max_len=14))
        if s.is_trivial():
            continue
        run = initial_hole_run(s)
        i, direction = run - 1, s.letters[run]
        for k, (p, walk) in enumerate(find_useful_subwords(s)):
            # the puncture i is read forward and is listed first; a crossing
            # of (i, i+1) is read toward its direction arrow
            if hole_anchored((p, walk)):
                assert k == 0 and p == i
                step = 1
            else:
                assert s.letters[p] == 2 * i + 1
                step = 1 if s.letters[p + 1] == direction else -1
                crossing_arcs += 1
            assert walk == puncture_walk(s.letters, p, step)
            arcs += 1
    assert arcs > 300 and crossing_arcs > 100


def test_find_useful_subwords_refuses_the_straight_diagram():
    with pytest.raises(ValueError, match="straight diagram"):
        find_useful_subwords(trivial_sequence(3))  # no critical stretch to read


def test_leftmost_useful_subword_prefers_the_puncture_read():
    s = word_to_cutseq(parse_word("1", 3))
    u = leftmost_useful_subword(s)
    assert hole_anchored(u)
    # from the puncture 0 at position 0 over the top to the puncture 2
    assert u == (0, (0, UP, 4))


def test_leftmost_useful_subword_refuses_the_straight_diagram():
    with pytest.raises(ValueError, match="straight diagram"):
        leftmost_useful_subword(trivial_sequence(3))


def reference_leftmost_useful_subword(s):
    """Every arc read, then the puncture's arc or the crossing first in
    real-line order."""
    i = initial_hole_run(s) - 1  # the critical stretch is (i, i+1)
    candidates = find_useful_subwords(s)
    for u in candidates:
        if hole_anchored(u):
            return u
    by_anchor = dict(candidates)
    return next((p, by_anchor[p]) for p in occurrence_order(s, i) if p in by_anchor)


def test_leftmost_useful_subword_matches_the_read_everything_reference(rng):
    crossing_wins = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        s = word_to_cutseq(random_word(rng, n, max_len=14))
        if s.is_trivial():
            continue
        u = leftmost_useful_subword(s)
        assert u == reference_leftmost_useful_subword(s)
        crossing_wins += not hole_anchored(u)
    assert crossing_wins > 20


def test_leftmost_useful_subword_matches_the_reference_on_every_slide():
    # the two top arcs often share their own walk; then only the walks on
    # the other side of their crossings tell them apart
    rng = random.Random(27)
    slides = tied = 0
    for _ in range(1_000):
        s = word_to_cutseq(random_word(rng, rng.randint(2, 8), max_len=14))
        while not s.is_trivial():
            u = leftmost_useful_subword(s)
            assert u == reference_leftmost_useful_subword(s), str(s)
            arcs = find_useful_subwords(s)
            walks = [walk for _, walk in arcs]
            tied += not hole_anchored(arcs[0]) and len(set(walks)) < len(walks)
            slides += 1
            s = cutseq._act_word(s, canonical._slide_letters(u[1]))
    assert slides > 2_000 and tied >= 200


def test_canonical_form_checks_no_sequence_for_reducedness(monkeypatch):
    # every sequence of the slide loop comes from the generator action
    calls = []

    def counted(s):
        calls.append(s)
        return is_reduced(s)

    monkeypatch.setattr(cutseq, "is_reduced", counted)  # every refusal calls it
    slid = []
    leftmost = canonical.leftmost_useful_subword
    monkeypatch.setattr(
        canonical, "leftmost_useful_subword", lambda s: slid.append(s) or leftmost(s)
    )
    for text in ("1 1 2 -1 2 2", "-2 -1 2 2 2 -1 2 -1", "1 2 1 1 2 -3 2 2 1"):
        canonical_form(parse_word(text, 4))
    assert calls == []
    ranked = [find_useful_subwords(s) for s in slid]
    # some slide ranked two or more crossing arcs
    assert any(len(arcs) >= 2 and not hole_anchored(arcs[0]) for arcs in ranked)


def test_canonical_equals_input_as_braid(rng):
    for low, high in STRAND_REGIMES:
        for _ in range(150):
            n = rng.randint(low, high)
            word = random_word(rng, n)
            r = canonical_form(word)
            assert braid_equal(r.word, word), word


def test_canonical_is_presentation_invariant(rng):
    for low, high in STRAND_REGIMES:
        for _ in range(100):
            n = rng.randint(low, high)
            word = random_word(rng, n, max_len=8)
            other = insert_identity(rng, insert_identity(rng, word))
            assert canonical_form(word).word == canonical_form(other).word, word


def test_canonical_word_is_sigma_consistent(rng):
    """The output spells its own sign: the smallest generator appears with
    one sign only, matching the sign of the braid."""
    for low, high in STRAND_REGIMES:
        for _ in range(150):
            word = random_word(rng, rng.randint(low, high))
            r = canonical_form(word)
            syntactic = is_sigma_consistent(r.word)
            assert syntactic.kind in ("trivial", "positive", "negative")
            assert syntactic == r.sign == sign(word), word


def test_canonical_respects_order_against_identity(rng):
    for _ in range(60):
        word = random_word(rng, 3)
        r = canonical_form(word)
        c = compare(word, parse_word("", 3))
        if r.sign.kind == "trivial":
            assert c is Ordering.EQUAL
        elif r.sign.kind == "positive":
            assert c is Ordering.GREATER
        else:
            assert c is Ordering.LESS


def test_iteration_cap_raises_cleanly(monkeypatch):
    monkeypatch.setattr(canonical, "_SLIDES_PER_CROSSING", 0)  # a cap of no slides
    with pytest.raises(CanonicalError, match="no convergence after 0 slides"):
        canonical_form(parse_word("1 2 -1 -2 1 2", 3))


def test_canonical_form_checks_each_generator_result_once(monkeypatch, rng):
    checks = []

    def check(n, letters, screened=False):
        checks.append(letters)
        return _check_well_formed(n, letters, screened)

    monkeypatch.setattr(cutseq, "_check_well_formed", check)
    slid = 0
    for _ in range(40):
        w = random_word(rng, rng.randint(2, 6), max_len=12)
        checks.clear()
        r = canonical_form(w)
        # the trivial sequence, the generators of the shortened word, then
        # those of every slide word (the canonical word has their letters)
        assert len(checks) == 1 + len(free_reduce(w)) + len(r.word)
        slid += len(r.word)
    assert slid > 100


def test_every_slide_letter_is_a_generator_of_its_strands(monkeypatch):
    # the word action checks no index: the slide loop relies on each run
    # lying between values of the diagram, so within 1..n-1
    slide_letters = canonical._slide_letters
    made = []
    monkeypatch.setattr(
        canonical, "_slide_letters", lambda walk: made.append(slide_letters(walk)) or made[-1]
    )
    rng = random.Random(6)
    slides = 0
    for j in range(5_000):
        n = 2 + j % 8
        made.clear()
        canonical_form(random_word(rng, n, max_len=14))
        for letters in made:
            assert letters and all(1 <= abs(k) <= n - 1 for k in letters), (n, letters)
        slides += len(made)
    assert slides > 10_000


def test_leftmost_useful_subword_matches_the_reference_where_one_arc_is_usable():
    # min() returns a lone usable crossing arc without ranking it by its
    # walks, while the reference orders every crossing of the interval; at
    # least 100 of these diagrams have such a lone arc among two or more
    # crossings of the critical interval
    rng = random.Random(40951)
    diagrams = lone_arcs = 0
    while diagrams < 2_000:
        n = rng.randint(2, 9)
        s = word_to_cutseq(random_word(rng, n, max_len=16, min_len=4))
        if s.is_trivial():
            continue
        diagrams += 1
        i = initial_hole_run(s) - 1
        u = leftmost_useful_subword(s)
        assert u == reference_leftmost_useful_subword(s)
        candidates = find_useful_subwords(s)
        lone_arcs += (
            not hole_anchored(candidates[0])
            and len(candidates) == 1
            and s.letters.count(2 * i + 1) >= 2
        )
    assert lone_arcs >= 100
