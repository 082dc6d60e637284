"""What the tests check the library against, kept out of the library.

- :func:`permutation_image`, :func:`crossing_numbers` and
  :func:`is_sigma_consistent` read invariants off a word's letters;
- :func:`enumerate_constrained` lists every word of a length with given
  invariants;
- :func:`identity_images` is what the free-group action gives the identity
  braid;
- :func:`handle_reduce` is Dehornoy's handle reduction, a route to the sign
  and to equality that shares nothing with the coordinates or the cutting
  sequences.

From the package this module imports only ``braidorder.words``, and no
module of the package imports it (``tests/test_oracle.py`` checks both).
"""

from __future__ import annotations

import itertools
from typing import Sequence

from braidorder.words import BraidWord, SignResult

SEARCH_SPACE_LIMIT = 10_000_000

# Reductions allowed to one call of handle_reduce.  The 200 seeded random
# words of tests/test_referee.py (up to 400 letters, 3 to 10 strands) take
# at most 3,423.
MAX_HANDLE_STEPS = 1_000_000


def permutation_image(w: BraidWord) -> tuple[int, ...]:
    """The induced permutation of {1..n}: entry s-1 is where string s ends up."""
    pos = list(range(1, w.n + 1))  # pos[p] = label of the string at position p+1
    for k in w.letters:
        j = abs(k) - 1
        pos[j], pos[j + 1] = pos[j + 1], pos[j]
    images = [0] * w.n
    for p, label in enumerate(pos):
        images[label - 1] = p + 1
    return tuple(images)


def crossing_numbers(w: BraidWord) -> dict[tuple[int, int], int]:
    """Algebraic crossing counts c(i, j) for all pairs 1 <= i < j <= n.

    Each crossing of the strings starting at positions i and j contributes
    the sign of the letter that crosses them.
    """
    c = {(i, j): 0 for i in range(1, w.n + 1) for j in range(i + 1, w.n + 1)}
    pos = list(range(1, w.n + 1))
    for k in w.letters:
        j = abs(k) - 1
        a, b = pos[j], pos[j + 1]
        c[(min(a, b), max(a, b))] += 1 if k > 0 else -1
        pos[j], pos[j + 1] = pos[j + 1], pos[j]
    return c


def is_sigma_consistent(w: BraidWord) -> SignResult:
    """Does the smallest occurring generator index appear with only one sign?

    Purely syntactic: "positive i=k" / "negative i=k" if generator k (the
    smallest occurring) is used with a single sign, "trivial" for the empty
    word, "inconsistent" otherwise.
    """
    if not w.letters:
        return SignResult("trivial")
    i = min(abs(k) for k in w.letters)
    signs = {k > 0 for k in w.letters if abs(k) == i}
    if len(signs) == 2:
        return SignResult("inconsistent")
    return SignResult("positive" if signs.pop() else "negative", i)


def enumerate_constrained(
    n: int,
    length: int,
    permutation: Sequence[int] | None = None,
    crossings: dict[tuple[int, int], int] | None = None,
) -> list[BraidWord]:
    """All words of the given length whose invariants match the constraints.

    ``permutation`` is the required image tuple, ``crossings`` the required
    algebraic crossing counts (missing pairs are unconstrained).  The
    alphabet has 2(n-1) letters; the search is exhaustive and guarded
    against oversized spaces.
    Words that are equal as braids are all returned; deduplicate through
    ``oracle.artin_action`` if elements are wanted.
    """
    alphabet = [*range(1, n), *range(-(n - 1), 0)]
    if (2 * (n - 1)) ** length > SEARCH_SPACE_LIMIT:
        raise ValueError(
            f"search space (2(n-1))^length = {(2 * (n - 1)) ** length} "
            f"exceeds the {SEARCH_SPACE_LIMIT} guard"
        )
    want_perm = tuple(permutation) if permutation is not None else None
    want_cross = None
    if crossings is not None:
        want_cross = {(min(i, j), max(i, j)): v for (i, j), v in crossings.items()}
    out = []
    for combo in itertools.product(alphabet, repeat=length):
        w = BraidWord(n, combo)
        if want_perm is not None and permutation_image(w) != want_perm:
            continue
        if want_cross is not None:
            c = crossing_numbers(w)
            if any(c[pair] != v for pair, v in want_cross.items()):
                continue
        out.append(w)
    return out


def identity_images(n: int) -> tuple[tuple[int, ...], ...]:
    """The images of x_1..x_n under the identity braid's free-group action."""
    return tuple((j,) for j in range(1, n + 1))


# --- handle reduction ---------------------------------------------------------
#
# Dehornoy, "A fast method for comparing braids", Adv. Math. 125 (1997);
# Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering Braids* (AMS 2008).  A
# sigma_i-handle is sigma_i^e w sigma_i^-e, e = +-1, where every letter of w
# has index greater than i.  It equals w with each sigma_{i+1}^d replaced by
# sigma_{i+1}^-e sigma_i^d sigma_{i+1}^e, since sigma_i commutes with the
# higher generators and sigma_i sigma_{i+1} sigma_i^-1 = sigma_{i+1}^-1
# sigma_i sigma_{i+1}.  The handle that closes first holds no inner handle,
# so reducing it is a permitted step, and permitted reductions terminate.  A
# word without a handle is sigma-consistent, and it is empty exactly when
# the braid is the identity.


def _first_handle(letters: list[int]) -> tuple[int, int] | None:
    """The ends (p, q) of the handle that closes first, or None.

    A letter x closes a handle when the nearest earlier letter of index at
    most |x| is x's inverse.  The stack holds the positions that can still
    be such a nearest letter, their indices never falling from the bottom
    up, so each letter is pushed and popped at most once."""
    stack: list[int] = []
    for q, x in enumerate(letters):
        i = abs(x)
        while stack and abs(letters[stack[-1]]) > i:
            stack.pop()
        if stack and letters[stack[-1]] == -x:
            return stack[-1], q
        stack.append(q)
    return None


def handle_reduce(letters: Sequence[int], max_steps: int = MAX_HANDLE_STEPS) -> tuple[int, ...]:
    """The handle-free word of the braid of ``letters`` (signed generator
    indices), reducing the handle that closes first until none is left.

    Raises RuntimeError when more than ``max_steps`` reductions would be
    needed, so that a fault shows as a failure instead of a hang."""
    letters = list(letters)
    steps = 0
    while (handle := _first_handle(letters)) is not None:
        if steps == max_steps:
            raise RuntimeError(f"handle reduction passed {max_steps} steps")
        steps += 1
        p, q = handle
        i, e = abs(letters[p]), 1 if letters[p] > 0 else -1
        middle: list[int] = []
        for y in letters[p + 1 : q]:
            if abs(y) == i + 1:
                middle += (-e * (i + 1), i if y > 0 else -i, e * (i + 1))
            else:
                middle.append(y)
        letters[p : q + 1] = middle
    return tuple(letters)


def handle_sign(w: BraidWord) -> SignResult:
    """The sign of ``w``'s braid, read off its handle-free word."""
    return is_sigma_consistent(BraidWord(w.n, handle_reduce(w.letters)))
