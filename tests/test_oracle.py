import ast
import random
from pathlib import Path

import pytest

from braidorder import oracle, parse_word
from braidorder.oracle import ArtinAutomorphism, artin_action
from braidorder.words import WordError
from conftest import exponent_sum, insert_identity, random_word, same_sum_partner
from referee import enumerate_constrained, identity_images, permutation_image


def test_identity_word_gives_identity_automorphism():
    assert artin_action(parse_word("", 3)).images == identity_images(3)


def test_cancelling_pair_gives_identity():
    assert artin_action(parse_word("1 -1", 3)).images == identity_images(3)
    assert artin_action(parse_word("-2 2", 3)).images == identity_images(3)


def test_braid_relator_gives_identity():
    assert artin_action(parse_word("1 2 1 -2 -1 -2", 3)).images == identity_images(3)


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


def _reference_substitute(table, word):
    """``word`` with every symbol rewritten through ``table`` (a symbol
    not in it is its own image), freely reduced."""
    out = []
    for x in word:
        for y in table.get(x, (x,)):
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def reference_artin_action(w):
    """Every image rewritten symbol by symbol for every letter."""
    images = [(j,) for j in range(1, w.n + 1)]
    for g in w.letters:
        # only x_|g| and x_|g|+1 move, and an inverse's image is the
        # image's inverse
        table = {}
        for k in (abs(g), abs(g) + 1):
            img = _reference_basic_image(g, k)
            table[k], table[-k] = img, tuple(-y for y in reversed(img))
        images = [_reference_substitute(table, img) for img in images]
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
    assert oracle.braid_equal(a, b)


def test_braid_equal_distinguishes_generators():
    assert not oracle.braid_equal(parse_word("1", 3), parse_word("2", 3))


def test_braid_equal_is_invariant_under_rewrites(rng):
    for _ in range(150):
        w = random_word(rng, rng.randint(2, 5))
        assert oracle.braid_equal(w, insert_identity(rng, w))


def reference_braid_equal(a, b):
    """The quotient a * b^-1 acts as the identity."""
    return artin_action(a * b.inverse()).images == identity_images(a.n)


def test_braid_equal_matches_the_quotient_reference():
    rng = random.Random(31337)
    equal = unequal = 0
    for _ in range(600):
        a = random_word(rng, rng.randint(2, 8), max_len=14)
        if rng.random() < 0.5:
            b = a
            for _ in range(rng.randint(1, 3)):
                b = insert_identity(rng, b)
        else:
            b = random_word(rng, a.n, max_len=14)
        result = oracle.braid_equal(a, b)
        assert result == reference_braid_equal(a, b), (str(a), str(b))
        equal += result
        unequal += not result
    assert equal > 250 and unequal > 250


def reference_all_images_equal(a, b):
    """Every image of a against every image of b, each built symbol by
    symbol for every letter."""
    return reference_artin_action(a).images == reference_artin_action(b).images


def test_braid_equal_matches_the_all_images_reference():
    # the quotient test above mostly exits on the exponent sum; these pairs
    # share it, so the strand-by-strand comparison decides them
    rng = random.Random(40213)
    same_sum_unequal = equal = 0
    for j in range(2400):
        a = random_word(rng, 2 + j % 9, max_len=12)
        if j % 4 == 3:
            b = a
            for _ in range(rng.randint(1, 3)):
                b = insert_identity(rng, b)
        else:
            b = same_sum_partner(rng, a)
        assert exponent_sum(a) == exponent_sum(b)
        result = oracle.braid_equal(a, b)
        assert result == reference_all_images_equal(a, b), (str(a), str(b))
        same_sum_unequal += not result
        equal += result
    assert same_sum_unequal >= 1000 and equal >= 600


def counting(monkeypatch, name):
    """Replace ``oracle.<name>`` by a wrapper recording each call's arguments."""
    calls = []
    original = getattr(oracle, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracle, name, counted)
    return calls


def test_braid_equal_stops_at_different_exponent_sums(monkeypatch):
    substitutions = counting(monkeypatch, "_substitute")
    assert not oracle.braid_equal(parse_word("1 2 -1 2", 3), parse_word("2 1 -2 -1", 3))
    assert substitutions == []


def test_braid_equal_stops_at_the_first_image_that_differs(monkeypatch):
    images = counting(monkeypatch, "_image")
    a, b = parse_word("1 2 1", 4), parse_word("2 1 1", 4)
    assert artin_action(a).images[0] != artin_action(b).images[0]
    images.clear()
    assert not oracle.braid_equal(a, b)
    assert [j for _, _, j in images] == [1, 1]  # x_1 under a, then under b
    images.clear()
    # both fix x_1, and x_2 tells them apart
    assert not oracle.braid_equal(parse_word("2", 4), parse_word("3", 4))
    assert [j for _, _, j in images] == [1, 1, 2, 2]


def test_braid_equal_builds_every_image_of_equal_braids(monkeypatch):
    images = counting(monkeypatch, "_image")
    assert oracle.braid_equal(parse_word("1 2 1 3", 4), parse_word("2 1 2 3", 4))
    assert sorted(j for _, _, j in images) == [1, 1, 2, 2, 3, 3, 4, 4]


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


def test_enumerate_guards_search_space():
    with pytest.raises(ValueError):
        enumerate_constrained(5, 12)


def test_enumerate_crossing_constraint():
    words = enumerate_constrained(2, 3, crossings={(1, 2): 3})
    assert [str(w) for w in words] == ["1 1 1"]


def test_braid_equal_raises_a_word_error_for_a_strand_mismatch():
    with pytest.raises(WordError, match="strand count mismatch: 2 vs 3"):
        oracle.braid_equal(parse_word("1", 2), parse_word("1", 3))


def imports(path):
    """The modules the source file ``path`` imports, by full name: a
    relative import resolves within ``braidorder``, and ``from m import x``
    names both m and m.x."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = f"braidorder.{node.module or ''}".rstrip(".") if node.level else node.module
            found |= {module, *(f"{module}.{alias.name}" for alias in node.names)}
    return found


def package_imports(path):
    """What ``path`` imports from ``braidorder``, by short name: "words" for
    ``from .words import ...`` or ``import braidorder.words``, and the names
    of ``from braidorder import ...``."""
    return {name.split(".")[1] for name in imports(path) if name.startswith("braidorder.")}


def test_the_referee_stays_independent():
    # oracle and tests/referee.py check the cutting-sequence and coordinate
    # routes, so they must not share their code, and no library route may
    # lean on them
    source = Path(oracle.__file__).parent
    assert package_imports(source / "oracle.py") == {"words"}
    from_package = {
        name for name in imports(Path(__file__).with_name("referee.py"))
        if name.partition(".")[0] == "braidorder"
    }
    assert from_package == {"braidorder.words", "braidorder.words.BraidWord",
                            "braidorder.words.SignResult"}
    users = [
        path.stem for path in source.glob("*.py")
        if "oracle" in package_imports(path)
        or "referee" in {part for name in imports(path) for part in name.split(".")}
    ]
    assert users == []


def test_the_slide_loop_does_not_lean_on_geometry():
    # the slide loop ranks its usable arcs by their own walks, with no
    # interval order from geometry
    source = Path(oracle.__file__).parent
    assert "geometry" not in package_imports(source / "canonical.py")
