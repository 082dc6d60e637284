"""Randomized-law tests, one per suite, with seeds independent of the
acceptance bundle so the laws get exercised on two disjoint case streams."""

import random

import pytest

import property_suites as ps
from conftest import STRAND_REGIMES


@pytest.mark.parametrize("suite", ps.ALL_SUITES, ids=lambda f: f.__name__)
def test_suite(suite):
    # stable per-suite seed, distinct from the acceptance bundle's
    seed = sum(map(ord, suite.__name__))
    suite(random.Random(seed), 500)


@pytest.mark.parametrize("suite", ps.ALL_SUITES, ids=lambda f: f.__name__)
def test_suite_wide_strands(suite):
    """The same laws at n = 6..10, on a seed stream of their own."""
    seed = sum(map(ord, suite.__name__)) + 1
    suite(random.Random(seed), 150, strands=STRAND_REGIMES[1])


def test_deep_expansion_confluence():
    """Heavier re-expansion than the bundled suite uses: up to ten undo
    steps stacked before reducing back."""
    rng = random.Random(424242)
    from braidorder import word_to_cutseq
    from braidorder.cutseq import CuttingSequence
    from conftest import random_word, reduce_sequence

    for _ in range(150):
        n = rng.randint(2, 5)
        image = word_to_cutseq(random_word(rng, n))
        letters = list(image.letters)
        for _ in range(rng.randint(5, 10)):
            letters = ps._expand_once(rng, n, letters)
        blown = CuttingSequence(n, tuple(letters))
        assert reduce_sequence(blown) == image
        assert ps._random_order_reduce(rng, letters) == image.letters
