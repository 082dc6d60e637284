"""Acceptance gate: one test per numbered criterion, exact values pinned.

Time limits are enforced on the best of several runs of the already-imported
code path, so they measure the algorithm rather than interpreter startup.
"""

import random
import time

import property_suites as ps
from braidorder import (
    braid_equal,
    canonical_form,
    compare,
    compare_sequences,
    format_sequence,
    parse_word,
    sign,
    word_to_cutseq,
)
from braidorder.oracle import enumerate_constrained
from braidorder.order import Ordering
from braidorder.words import crossing_numbers, format_word, is_sigma_consistent


def best_time(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_coded_sequences():
    """Images of the one- and two-letter words match their expected coding
    character for character, in under a millisecond."""
    one = parse_word("1", 3)
    two = parse_word("1 -2", 3)
    assert format_sequence(word_to_cutseq(one)) == "_0 ^ _2 _1 v _3 _4"
    assert (
        format_sequence(word_to_cutseq(two))
        == "_0 ^ 1 v _3 v _1 v 3 ^ _2 ^ _4"
    )
    elapsed = best_time(lambda: (word_to_cutseq(one), word_to_cutseq(two)))
    assert elapsed < 0.001, f"{elapsed * 1000:.3f} ms"


def test_criterion_2_order_chain():
    """identity < sigma_1 sigma_2^-1 < sigma_1 on three strands, through the
    word route and the sequence route alike, in under a millisecond."""
    e, mixed, top = (parse_word(t, 3) for t in ("", "1 -2", "1"))
    assert compare(e, mixed) is Ordering.LESS
    assert compare(mixed, top) is Ordering.LESS
    se, sm, st = map(word_to_cutseq, (e, mixed, top))
    assert compare_sequences(se, sm) is Ordering.LESS
    assert compare_sequences(sm, st) is Ordering.LESS
    elapsed = best_time(
        lambda: (
            compare(e, mixed),
            compare(mixed, top),
            compare_sequences(se, sm),
            compare_sequences(sm, st),
        )
    )
    assert elapsed < 0.001, f"{elapsed * 1000:.3f} ms"


def test_criterion_3_canonical_form_of_the_full_twist_cube():
    """The nine-letter alternating word is its own canonical form, and the
    equivalent presentation with two sigma_1 letters names the same braid."""
    delta_cubed = parse_word("2 1 2 2 1 2 2 1 2", 3)
    alt = parse_word("2 2 1 2 2 2 1 2 2", 3)
    result = canonical_form(delta_cubed)
    assert result.word == delta_cubed
    assert braid_equal(alt, delta_cubed)
    assert alt.letters.count(1) == 2 and alt.letters.count(-1) == 0
    elapsed = best_time(lambda: canonical_form(delta_cubed))
    assert elapsed < 0.1, f"{elapsed * 1000:.1f} ms"


def test_criterion_4_equivalent_presentations():
    """Two spellings of one four-strand braid: equal, both sign-positive at
    index 1, and the canonical word exhibits that positivity syntactically."""
    a = parse_word("1 2 -3 2 -1", 4)
    b = parse_word("-2 -3 1 -2 1 3 2", 4)
    assert braid_equal(a, b)
    assert str(sign(a)) == "positive i=1"
    assert str(sign(b)) == "positive i=1"
    canonical = canonical_form(a).word
    assert format_word(canonical) == "-2 -3 1 -2 3 1 2"
    assert len(canonical) > 5
    assert str(is_sigma_consistent(canonical)) == "positive i=1"
    elapsed = best_time(
        lambda: (braid_equal(a, b), sign(a), sign(b), canonical_form(a))
    )
    assert elapsed < 0.1, f"{elapsed * 1000:.1f} ms"


def _commutation_class(letters):
    """All words reachable by swapping adjacent letters on distant strands."""
    seen = {letters}
    frontier = [letters]
    while frontier:
        cur = frontier.pop()
        for p in range(len(cur) - 1):
            x, y = cur[p], cur[p + 1]
            if abs(abs(x) - abs(y)) >= 2:
                nxt = cur[:p] + (y, x) + cur[p + 2 :]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return frozenset(seen)


def test_criterion_5_constrained_search():
    """Five-letter four-strand words with the permutation and crossing counts
    of the criterion-4 braid: three distinct diagrams, every one of which
    uses an inverse of the first generator.

    The searched space is 6^5 = 7776 words; 6 survive the constraints.  Up
    to swaps of far-apart letters they form exactly 3 words, the 3 distinct
    diagrams; as group elements two of the three coincide, leaving 2.  None
    of the words is positive at index 1, because every single one contains
    the letter -1.
    """
    reference = parse_word("1 2 -3 2 -1", 4)
    found = enumerate_constrained(
        4,
        5,
        permutation=(4, 2, 3, 1),
        crossings=crossing_numbers(reference),
    )
    texts = sorted(str(w) for w in found)
    assert texts == [
        "1 2 -3 2 -1",
        "1 3 -2 -1 3",
        "1 3 -2 3 -1",
        "3 -2 -1 2 3",
        "3 1 -2 -1 3",
        "3 1 -2 3 -1",
    ]
    classes = {_commutation_class(w.letters) for w in found}
    assert len(classes) == 3
    canonical_words = {canonical_form(w).word for w in found}
    assert len(canonical_words) == 2
    assert all(-1 in w.letters for w in found)
    assert all(is_sigma_consistent(w).kind != "positive" for w in found)

    elapsed = best_time(
        lambda: enumerate_constrained(
            4, 5, permutation=(4, 2, 3, 1), crossings=crossing_numbers(reference)
        ),
        repeats=3,
    )
    assert elapsed < 1.0, f"{elapsed * 1000:.1f} ms"


def test_criterion_6_conjugation_counterexample():
    """An eight-letter word that is negative at index 1 even though it is a
    conjugate of a braid that is positive at index 1: g^-1 x g with
    x = 1 1 -2 -2 and g = 2 1 1 2.  The mirror conjugate g x g^-1 is a
    different braid, which pins the side."""
    w6 = parse_word("-2 -1 2 2 2 -1 2 -1", 3)
    x = parse_word("1 1 -2 -2", 3)
    g = parse_word("2 1 1 2", 3)
    assert str(sign(w6)) == "negative i=1"
    assert str(sign(x)) == "positive i=1"
    assert braid_equal(w6, g.inverse() * x * g)
    assert not braid_equal(w6, g * x * g.inverse())
    assert compare(w6, parse_word("", 3)) is Ordering.LESS
    elapsed = best_time(
        lambda: (sign(w6), braid_equal(w6, g.inverse() * x * g))
    )
    assert elapsed < 0.1, f"{elapsed * 1000:.1f} ms"


def test_criterion_7_randomized_law_suites():
    """All eight law suites, 500 cases each from one seeded stream, within
    the one-minute budget."""
    t0 = time.perf_counter()
    for suite in ps.ALL_SUITES:
        suite(random.Random(20260819), 500)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f} s"
