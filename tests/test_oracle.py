import random

import pytest

from braidorder import braid_equal, parse_word
from braidorder.oracle import ArtinAutomorphism, artin_action, enumerate_constrained
from braidorder.words import permutation_image
from conftest import insert_identity, random_word


def test_identity_word_gives_identity_automorphism():
    assert artin_action(parse_word("", 3)).is_identity()


def test_cancelling_pair_gives_identity():
    assert artin_action(parse_word("1 -1", 3)).is_identity()
    assert artin_action(parse_word("-2 2", 3)).is_identity()


def test_braid_relator_gives_identity():
    assert artin_action(parse_word("1 2 1 -2 -1 -2", 3)).is_identity()


def test_generator_images():
    phi = artin_action(parse_word("1", 3))
    assert phi.images == ((1, 2, -1), (1,), (3,))


def _reference_basic_image(g, k):
    """Image of the free generator x_k under the single braid letter g."""
    i = abs(g)
    if g > 0:
        if k == i:
            return (i, i + 1, -i)
        if k == i + 1:
            return (i,)
    else:
        if k == i:
            return (i + 1,)
        if k == i + 1:
            return (-(i + 1), i, i + 1)
    return (k,)


def _reference_substitute(g, word):
    out = []
    for x in word:
        img = _reference_basic_image(g, abs(x))
        if x < 0:
            img = tuple(-y for y in reversed(img))
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def reference_artin_action(w):
    """Every image rewritten symbol by symbol for every letter."""
    images = [(j,) for j in range(1, w.n + 1)]
    for g in w.letters:
        images = [_reference_substitute(g, img) for img in images]
    return ArtinAutomorphism(w.n, tuple(images))


def test_action_matches_the_rewrite_everything_reference():
    rng = random.Random(77031)
    for _ in range(3000):
        w = random_word(rng, rng.randint(2, 10), max_len=40)
        assert artin_action(w) == reference_artin_action(w)


def test_images_stay_freely_reduced(rng):
    for _ in range(100):
        phi = artin_action(random_word(rng, rng.randint(2, 5)))
        for image in phi.images:
            assert all(a != -b for a, b in zip(image, image[1:]))


def test_braid_equal_on_equivalent_presentations():
    a = parse_word("1 2 -3 2 -1", 4)
    b = parse_word("-2 -3 1 -2 1 3 2", 4)
    assert braid_equal(a, b)


def test_braid_equal_distinguishes_generators():
    assert not braid_equal(parse_word("1", 3), parse_word("2", 3))


def test_braid_equal_is_invariant_under_rewrites(rng):
    for _ in range(150):
        w = random_word(rng, rng.randint(2, 5))
        assert braid_equal(w, insert_identity(rng, w))


def test_permutation_factors_through_the_action(rng):
    """Sending each free generator to its index abelianizes the action to the
    permutation: letter counts of image words locate the moved puncture."""
    for _ in range(100):
        w = random_word(rng, rng.randint(2, 5))
        phi = artin_action(w)
        perm = permutation_image(w)
        for p, image in enumerate(phi.images, 1):
            # the image word multiplies out to a single free generator once
            # signs cancel; that generator marks where puncture p is sent
            counts = [0] * (w.n + 1)
            for k in image:
                counts[abs(k)] += 1 if k > 0 else -1
            assert sum(abs(c) for c in counts) == 1
            target = next(i for i, c in enumerate(counts) if c == 1)
            assert perm[p - 1] == target


def test_enumerate_without_constraints():
    words = enumerate_constrained(2, 2)
    texts = sorted(str(w) for w in words)
    assert texts == ["-1 -1", "-1 1", "1 -1", "1 1"]


def test_enumerate_parity_mismatch_is_empty():
    # an odd permutation cannot come from an even-length word
    assert enumerate_constrained(3, 2, permutation=(2, 1, 3)) == []


def test_enumerate_respects_forbidden_letters():
    words = enumerate_constrained(2, 2, forbidden=(-1,))
    assert [str(w) for w in words] == ["1 1"]


def test_enumerate_guards_search_space():
    with pytest.raises(ValueError):
        enumerate_constrained(5, 12)


def test_enumerate_crossing_constraint():
    words = enumerate_constrained(2, 3, crossings={(1, 2): 3})
    assert [str(w) for w in words] == ["1 1 1"]
