"""Independent ground truth: braid equality through the free-group action.

The braid group acts faithfully on the free group generated by loops
x_1..x_n around the punctures: generator i maps x_i to x_i x_{i+1} x_i^-1,
x_{i+1} to x_i, and fixes the rest.  Two words are equal as braids exactly
when their composed substitutions agree, which reduces equality to freely
reducing words; :func:`braid_equal` checks the exponent sum first and then
one image at a time, stopping at the first that differs.  None of the
cutting-sequence or coordinate machinery is used here, and words are never
shortened, so this module can referee it: the public ``braid_equal`` is
``order.braid_equal``, and this one checks it in the tests and the benchmark.
The tests' other references are in ``tests/referee.py``.
"""

from __future__ import annotations

from .words import BraidWord, WordError, _setattr, _Value

FreeWord = tuple[int, ...]  # signed generator indices, always freely reduced


def _substitution(g: int) -> dict[int, FreeWord]:
    """The images of the symbols the braid letter g moves: +-x_i, +-x_{i+1}
    for i = |g|.  Every other symbol is fixed."""
    i = abs(g)
    if g > 0:
        low, high = (i, i + 1, -i), (i,)
    else:
        low, high = (i + 1,), (-(i + 1), i, i + 1)
    return {
        i: low,
        i + 1: high,
        -i: tuple(-y for y in reversed(low)),
        -(i + 1): tuple(-y for y in reversed(high)),
    }


def _substitute(table: dict[int, FreeWord], word: FreeWord) -> FreeWord:
    """Rewrite each symbol through ``table`` (others stay), reducing eagerly."""
    out: list[int] = []
    for x in word:
        for y in table.get(x, (x,)):
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


class ArtinAutomorphism(_Value):
    """The composed substitution of a braid word: images of x_1..x_n."""

    __match_args__ = ("n", "images")

    def __init__(self, n: int, images: tuple[FreeWord, ...]):
        _setattr(self, "n", n)
        _setattr(self, "images", images)


def _image(letters, tables: dict[int, dict[int, FreeWord]], j: int) -> FreeWord:
    """The image of x_j under the word ``letters``, composing the letter
    substitutions ``tables[g]`` in word order (leftmost acts first).  Each
    image evolves on its own; one holding none of the symbols a letter
    moves is kept as it is."""
    image: FreeWord = (j,)
    for g in letters:
        table = tables[g]
        if not table.keys().isdisjoint(image):
            image = _substitute(table, image)
    return image


def artin_action(w: BraidWord) -> ArtinAutomorphism:
    """The images of x_1..x_n under the word's composed substitution."""
    tables = {g: _substitution(g) for g in set(w.letters)}
    return ArtinAutomorphism(w.n, tuple(_image(w.letters, tables, j) for j in range(1, w.n + 1)))


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    """Do the two words represent the same braid?

    The first invariant that differs decides.  The exponent sum (letters
    counted +1 and -1) is the abelianization B_n -> Z, a homomorphism, so
    words with different sums are different braids.  Otherwise the images
    of x_1, x_2, ... under a and under b are compared one strand at a time,
    and the first that differs answers False.  The action is faithful, so
    the words are the same braid exactly when every image agrees (which
    spares acting with the quotient a * b^-1, of length |a| + |b|)."""
    if a.n != b.n:
        raise WordError(f"strand count mismatch: {a.n} vs {b.n}")
    if _exponent_sum(a.letters) != _exponent_sum(b.letters):
        return False
    tables = {g: _substitution(g) for g in {*a.letters, *b.letters}}
    return all(
        _image(a.letters, tables, j) == _image(b.letters, tables, j) for j in range(1, a.n + 1)
    )


def _exponent_sum(letters) -> int:
    return sum(1 if k > 0 else -1 for k in letters)
