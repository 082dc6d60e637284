"""Exhaustive balls: the canonical form and the order on every short word.

The paper's uniqueness theorem says that all words of one braid get one
canonical word.  The other tests sample it; these check it on every freely
reduced word (no letter next to its inverse) up to a radius:

- length at most 7 on B_3: 4,373 words, 1,233 braids;
- length at most 5 on B_4: 4,687 words, 1,579 braids.

The words are grouped into braids by their Dynnikov coordinates, and that
grouping is checked against the free-group action of ``oracle``, which is
independent of them.  Then each class must have one canonical word, and
the braids, sorted by ``compare``, must be ordered alike by
``compare_sequences`` on their cutting sequences, each of which
``validate`` accepts.  On every word the handle sign of ``tests/referee.py``
must be ``sign``; right multiplication by each generator must keep every
pair of sorted neighbours in order; and each class's canonical word must
be its own canonical word.
"""

import collections
import functools

import pytest

from braidorder import BraidWord, Ordering, canonical_form, compare, compare_sequences, validate
from braidorder import braid_equal, sign, word_to_cutseq
from braidorder.oracle import artin_action
from braidorder.order import _act_letters
from referee import handle_sign, is_sigma_consistent

# (strands, radius, words, braids)
BALLS = [(3, 7, 4_373, 1_233), (4, 5, 4_687, 1_579)]


def freely_reduced_words(n, radius):
    """Every word on n strands of length at most ``radius`` in which no
    letter is next to its inverse, shortest first."""
    alphabet = [*range(1, n), *range(1 - n, 0)]
    layer = [()]
    words = [()]
    for _ in range(radius):
        layer = [w + (k,) for w in layer for k in alphabet if not w or w[-1] != -k]
        words += layer
    return [BraidWord(n, letters) for letters in words]


def coordinates(w):
    c = [0, 1] * w.n
    _act_letters(c, w.letters)
    return tuple(c)


@pytest.fixture(scope="module", params=BALLS, ids=lambda ball: f"B{ball[0]} radius {ball[1]}")
def ball(request):
    """The ball's words grouped into braids by their Dynnikov coordinates."""
    n, radius, words, braids = request.param
    ws = freely_reduced_words(n, radius)
    assert len(ws) == words
    classes = collections.defaultdict(list)
    for w in ws:
        classes[coordinates(w)].append(w)
    assert len(classes) == braids
    return list(classes.values())


def test_coordinates_and_the_free_group_action_group_the_words_alike(ball):
    by_image = collections.defaultdict(set)
    for words in ball:
        for w in words:
            by_image[artin_action(w).images].add(w)
    assert {frozenset(words) for words in ball} == set(map(frozenset, by_image.values()))


def test_every_word_of_a_braid_gets_one_sigma_consistent_canonical_word(ball):
    for words in ball:
        forms = {canonical_form(w).word for w in words}
        assert len(forms) == 1, words
        form = forms.pop()
        assert is_sigma_consistent(form).kind != "inconsistent", form
        assert braid_equal(form, words[0])


def test_sorted_braids_are_ordered_alike_by_their_sequences(ball):
    ranked = sorted((words[0] for words in ball), key=functools.cmp_to_key(
        lambda a, b: compare(a, b).value))
    sequences = [word_to_cutseq(w) for w in ranked]
    for s in sequences:
        assert validate(s).ok, s
    for s, t in zip(sequences, sequences[1:]):
        assert compare_sequences(s, t) is Ordering.LESS, (s, t)


def test_the_handle_sign_is_the_sign_of_every_word(ball):
    for words in ball:
        for w in words:
            assert handle_sign(w) == sign(w), w


def test_right_multiplication_keeps_sorted_neighbours_in_order(ball):
    ranked = sorted((words[0] for words in ball), key=functools.cmp_to_key(
        lambda a, b: compare(a, b).value))
    n = ranked[0].n
    for k in (*range(1, n), *range(1 - n, 0)):
        generator = BraidWord(n, (k,))
        for a, b in zip(ranked, ranked[1:]):
            assert compare(a * generator, b * generator) is Ordering.LESS, (a, b, k)


def test_the_canonical_word_of_every_class_is_its_own(ball):
    for words in ball:
        form = canonical_form(words[0]).word
        assert canonical_form(form).word == form, words[0]
