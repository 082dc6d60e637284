import random
import re
import time

import pytest

from braidorder import BraidWord, WordError, braid_equal, parse_word
from braidorder import words
from braidorder.words import MAX_STRANDS, format_word, free_reduce, parse_letters
from conftest import insert_identity, random_word
from referee import crossing_numbers, is_sigma_consistent, permutation_image


def test_parse_basic():
    w = parse_word("1 -2 1", 3)
    assert w.n == 3
    assert w.letters == (1, -2, 1)


def test_parse_empty():
    assert parse_word("", 3).letters == ()
    assert parse_word("   ", 3).letters == ()


def test_parse_rejects_out_of_range():
    with pytest.raises(WordError):
        parse_word("3", 3)
    with pytest.raises(WordError):
        parse_word("0", 3)
    with pytest.raises(WordError):
        parse_word("-4", 4)


def test_parse_rejects_garbage():
    with pytest.raises(WordError):
        parse_word("one two", 3)
    with pytest.raises(WordError):
        parse_word("1.5", 3)
    # int() reads "1_0", "+1", "٣", "01" and "-02" as integers; a word has
    # one text form only
    for text in ("1_0", "+1", "٣", "01", "1 -02", "1-2", "- 1"):
        with pytest.raises(WordError, match="not an integer letter"):
            parse_word(text, 12)


def test_parse_error_quotes_a_long_token_by_its_start_and_length():
    with pytest.raises(WordError) as e:
        parse_word("1 0" + "1" * 5_000, 3)
    assert str(e.value) == "not an integer letter: '01111111111111111111'... (5001 characters)"
    with pytest.raises(WordError) as e:  # 20 characters are quoted whole
        parse_word("+" + "1" * 19, 3)
    assert str(e.value) == f"not an integer letter: {'+' + '1' * 19!r}"


def test_parse_digit_runs():
    # a zero after the first digit is no leading zero
    assert parse_word("10 -10 100", 101).letters == (10, -10, 100)
    # past 4,300 digits int() raises a plain ValueError
    with pytest.raises(WordError, match="out of range"):
        parse_word("1 " + "1" * 5_000, 3)


def test_constructor_validates_letters():
    with pytest.raises(WordError):
        BraidWord(2, (2,))
    with pytest.raises(WordError):
        BraidWord(1, ())


@pytest.mark.parametrize("bad", [1.5, True, "1", None, 2.0])
def test_constructor_refuses_letters_that_are_not_ints(bad):
    # a bool would otherwise pass as the letter 1, and a float or a string
    # would reach sign and the cutting-sequence action
    with pytest.raises(WordError, match=f"not an integer letter: {re.escape(repr(bad))}"):
        BraidWord(3, (1, bad, -2))


def test_constructor_names_the_first_bad_letter():
    with pytest.raises(WordError, match="letter 0 out of range"):
        BraidWord(3, (1, 0, "x", 5))
    with pytest.raises(WordError, match="not an integer letter: 'x'"):
        BraidWord(3, (1, "x", 0, 5))
    with pytest.raises(WordError, match="letter -5 out of range"):
        BraidWord(3, (1, -5, 5))
    assert BraidWord(3, (2, -2, 1, -1)).letters == (2, -2, 1, -1)


def test_strand_count_is_bounded():
    assert parse_word("1", MAX_STRANDS).n == MAX_STRANDS
    with pytest.raises(WordError, match="strand count"):
        parse_word("", MAX_STRANDS + 1)
    with pytest.raises(WordError, match="strand count"):
        parse_word("", 10**9)
    for n, text in [(1, "1"), (MAX_STRANDS + 1, "10001"), (10**30, "<100-bit number>")]:
        with pytest.raises(WordError) as e:
            BraidWord(n)
        assert str(e.value) == f"strand count {text} out of range 2..{MAX_STRANDS}"


@pytest.mark.parametrize("bad", [2.5, 3.0, 2.0, True, "3", None])
def test_constructor_refuses_a_strand_count_that_is_not_an_int(bad):
    # a float would otherwise reach sign ("can't multiply sequence by
    # non-int") and canonical_form, and True would pass as 1
    with pytest.raises(WordError, match=f"not an integer strand count: {re.escape(repr(bad))}"):
        BraidWord(bad, (1,))


@pytest.mark.parametrize(
    "make", [lambda: BraidWord(3, (10**5000,)), lambda: BraidWord(3, (-(10**5000),)),
             lambda: BraidWord(10**5000)],
    ids=["letter", "negative letter", "strands"],
)
def test_huge_numbers_give_a_short_word_error(make):
    # formatting the number itself would raise a plain ValueError past 4,300
    # digits; the message gives its bit length instead
    with pytest.raises(WordError, match="out of range") as e:
        make()
    assert len(str(e.value)) < 100
    assert "16610-bit number" in str(e.value)


def test_numbers_up_to_20_digits_are_quoted_whole():
    with pytest.raises(WordError, match=f"letter {10**20 - 1} out of range"):
        BraidWord(3, (10**20 - 1,))
    with pytest.raises(WordError, match="letter <67-bit number> out of range"):
        BraidWord(3, (10**20,))


def test_format_round_trip(rng):
    for _ in range(200):
        n = rng.randint(2, 5)
        w = random_word(rng, n)
        assert parse_word(format_word(w), n) == w


def test_str_matches_format():
    w = parse_word("1 -2", 3)
    assert str(w) == "1 -2" == format_word(w)


def test_product_and_inverse():
    a = parse_word("1 2", 3)
    b = parse_word("-1", 3)
    assert (a * b).letters == (1, 2, -1)
    assert a.inverse().letters == (-2, -1)
    assert len(a * b) == 3


def test_product_requires_same_strands():
    with pytest.raises(WordError):
        parse_word("1", 2) * parse_word("1", 3)


@pytest.mark.parametrize("product", [lambda w: w * 5, lambda w: 5 * w])
def test_product_with_a_non_word_raises_type_error(product):
    with pytest.raises(TypeError, match="unsupported operand"):
        product(parse_word("1", 3))


def outcome(parse, *args):
    """What parse(*args) gives, or its error's type and message."""
    try:
        return parse(*args)
    except Exception as e:
        return type(e), str(e)


LETTER = re.compile(r"-?(0|[1-9][0-9]*)")


def reference_letters(text):
    """The letters of ``text`` read token by token: each token must match
    ``LETTER``, and then each is read by int(), which refuses a digit run
    past 4,300 digits."""
    tokens = text.split()
    for token in tokens:
        if not LETTER.fullmatch(token):
            raise WordError(f"not an integer letter: {words._brief(token)}")
    letters = []
    for token in tokens:
        try:
            letters.append(int(token))
        except ValueError:
            raise WordError(
                f"letter out of range for any strand count up to {MAX_STRANDS}"
            ) from None
    return tuple(letters)


def reference_parse(text, n):
    """Every letter read by :func:`reference_letters`, then checked by BraidWord."""
    return BraidWord(n, reference_letters(text))


# Tokens the spelling table must refuse, each for the reason the reference
# gives: a zero, leading zeros, a plus sign, other scripts' digits, a stray
# or doubled "-", tokens past 20 characters, and digit runs past 4,300
# digits, which int() refuses.
FAULTS = ["0", "-0", "00", "01", "-01", "007", "+1", "+0", "\u0663", "\uff11", "1\u0663",
          "1_0", "--1", "-", "1-", "1.0", "x", "1" * 21, "-" + "2" * 30, "1" * 4_301,
          "-" + "9" * 4_400, "0" + "1" * 5_000]


def random_text(rng):
    """Letters of index up to a top of 1 to 13, so that some are out of
    range at every n tried, sometimes with a fault, joined by spaces, tabs,
    newlines, NBSPs and \\x1c separators: str.split and the reference both
    take these as whitespace."""
    top = rng.choice((1, 2, 4, 8, 11, 13))
    tokens = [str(rng.choice((1, -1)) * rng.randint(1, top)) for _ in range(rng.randint(0, 12))]
    for _ in range(rng.choice((0, 0, 1, 2))):
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(FAULTS))
    seps = [rng.choice((" ", " ", " ", "  ", "\t", "\n", "\xa0", "\x1c")) for _ in tokens]
    text = "".join(sep + token for sep, token in zip(seps, tokens))
    return text if rng.random() < 0.5 else text.strip()


def seeded_texts():
    """6,000 seeded :func:`random_text` texts, each with the strand counts
    to parse it on: 2, one of 3..11, and 12."""
    rng = random.Random(18)
    for _ in range(6_000):
        text = random_text(rng)
        yield text, (2, rng.randint(3, 11), 12)


def test_parse_word_matches_the_reference_on_seeded_texts():
    parsed = errors = refused_at_a_smaller_n = 0
    for text, strands in seeded_texts():
        seen = []
        for n in strands:
            got, want = outcome(parse_word, text, n), outcome(reference_parse, text, n)
            assert got == want, (text[:80], n)
            if isinstance(got, BraidWord):
                assert got.n == n and all(type(k) is int for k in got.letters)
                parsed += 1
            else:
                errors += 1
            seen.append(isinstance(got, BraidWord))
        refused_at_a_smaller_n += seen[2] and not seen[0]
    assert parsed > 4_000 and errors > 10_000 and refused_at_a_smaller_n > 1_000


def test_parse_letters_matches_the_reference_on_seeded_texts():
    parsed = refused = 0
    for text, _ in seeded_texts():
        got = outcome(parse_letters, text)
        assert got == outcome(reference_letters, text), text[:80]
        if got and type(got[0]) is type:
            refused += 1
        else:
            assert all(type(k) is int for k in got)
            parsed += 1
    assert parsed > 3_000 and refused > 2_500


@pytest.mark.parametrize("n", [1, 0, -3, MAX_STRANDS + 1, 10**30, 2.0, True, "3", None])
@pytest.mark.parametrize("text", ["", "1", "0", "x", "1 +1", "9" * 5_000])
def test_parse_word_reports_the_reference_error_for_a_refused_strand_count(n, text):
    got = outcome(parse_word, text, n)
    assert got == outcome(reference_parse, text, n)
    assert got[0] is WordError


def test_spelling_tables_stay_within_their_bound():
    top = words._TABLE_STRANDS
    for n in [*range(2, 300), 1_000, 4_321, MAX_STRANDS - 1, MAX_STRANDS]:
        assert parse_word(f"1 -{n - 1}", n).letters == (1, 1 - n)
    info = words._spellings.cache_info()
    assert info.currsize <= top - 1
    assert len(words._spellings(top)) == 2 * (top - 1)
    assert sum(len(words._spellings(m)) for m in range(2, top + 1)) == top * (top - 1) == 4_032
    assert words._spellings.cache_info().currsize == info.currsize  # none built above


def test_free_reduce():
    assert free_reduce(parse_word("1 -1 2", 3)).letters == (2,)
    assert free_reduce(parse_word("1 2 -2 -1", 3)).letters == ()
    # reduction cascades through newly adjacent pairs
    assert free_reduce(parse_word("2 1 -1 -2 1", 3)).letters == (1,)


def test_free_reduce_cancels_across_commuting_letters():
    assert free_reduce(parse_word("1 3 -1", 4)).letters == (3,)
    assert free_reduce(parse_word("-2 4 5 -5 2 4", 6)).letters == (4, 4)
    assert free_reduce(parse_word("1 3 4 -3 -1", 5)).letters == (3, 4, -3)
    # cascades through pairs that only became cancellable
    assert free_reduce(parse_word("1 3 2 -2 -3 -1", 4)).letters == ()


def test_free_reduce_is_blocked_by_a_non_commuting_letter():
    for text in ("1 2 -1", "2 1 -2", "2 3 -2", "1 3 2 -1", "1 1 2 -1"):
        w = parse_word(text, 4)
        assert free_reduce(w) == w
    # the nearest letter of the same index is the only partner
    assert free_reduce(parse_word("1 1 -1", 3)).letters == (1,)


def _cancellable_pair(letters):
    """A pair k ... -k with only commuting letters between, by brute force."""
    for p, k in enumerate(letters):
        for j in range(p + 1, len(letters)):
            if letters[j] == -k:
                return p, j
            if abs(abs(letters[j]) - abs(k)) < 2:
                break
    return None


def test_free_reduce_presents_the_same_braid_and_leaves_no_pair(rng):
    for _ in range(300):
        n = rng.randint(2, 10)
        w = random_word(rng, n, max_len=40)
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                w = insert_identity(rng, w)
        r = free_reduce(w)
        assert braid_equal(r, w)
        assert len(r) <= len(w)
        assert free_reduce(r) == r
        assert _cancellable_pair(r.letters) is None


def test_free_reduce_is_linear_on_long_pathological_words():
    """Words where each cancelling letter passes many commuting ones."""
    m = 6_667
    deep = BraidWord(4, (1,) * m + (3,) * m + (-1,) * m)
    shallow = BraidWord(4, (3,) * m + (1, -1) * m)
    t0 = time.perf_counter()
    assert free_reduce(deep).letters == (3,) * m
    assert free_reduce(shallow).letters == (3,) * m
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.5, f"{elapsed:.3f} s"


def test_permutation_identity():
    assert permutation_image(parse_word("", 4)) == (1, 2, 3, 4)


def test_permutation_single_crossing():
    assert permutation_image(parse_word("1", 2)) == (2, 1)
    assert permutation_image(parse_word("-1", 2)) == (2, 1)


def test_permutation_of_equivalent_presentations():
    """Both spellings of one braid induce the transposition of strings 1, 4."""
    a = parse_word("1 2 -3 2 -1", 4)
    b = parse_word("-2 -3 1 -2 1 3 2", 4)
    assert permutation_image(a) == (4, 2, 3, 1)
    assert permutation_image(b) == (4, 2, 3, 1)


def test_permutation_invariant_under_relators(rng):
    from conftest import insert_identity

    for _ in range(200):
        w = random_word(rng, rng.randint(2, 5))
        assert permutation_image(w) == permutation_image(insert_identity(rng, w))


def test_crossing_numbers_single():
    assert crossing_numbers(parse_word("1", 2)) == {(1, 2): 1}
    assert crossing_numbers(parse_word("-1", 2)) == {(1, 2): -1}


def test_crossing_numbers_label_convention():
    """Counts are indexed by starting position of the strings, not by where
    the crossing happens: after sigma_1 the strings 1 and 2 have swapped, so
    the sigma_2 letter in "1 2" crosses the strings labelled 1 and 3."""
    c = crossing_numbers(parse_word("1 2", 3))
    assert c == {(1, 2): 1, (1, 3): 1, (2, 3): 0}


def test_crossing_numbers_matrix():
    c = crossing_numbers(parse_word("1 2 -3 2 -1", 4))
    assert c == {
        (1, 2): 1,
        (1, 3): 1,
        (1, 4): -1,
        (2, 3): 0,
        (2, 4): -1,
        (3, 4): 1,
    }


def test_crossing_numbers_invariant_under_relators(rng):
    from conftest import insert_identity

    for _ in range(200):
        w = random_word(rng, rng.randint(2, 5))
        assert crossing_numbers(w) == crossing_numbers(insert_identity(rng, w))


def test_sigma_consistency():
    assert str(is_sigma_consistent(parse_word("", 3))) == "trivial"
    assert str(is_sigma_consistent(parse_word("-1 2", 3))) == "negative i=1"
    assert str(is_sigma_consistent(parse_word("1 2 -2 1", 3))) == "positive i=1"
    assert str(is_sigma_consistent(parse_word("2 -2", 3))) == "inconsistent"
    assert str(is_sigma_consistent(parse_word("-2 -3 1 -2 1 3 2", 4))) == "positive i=1"


def test_sigma_consistency_ignores_larger_indices():
    # only the smallest occurring index matters
    assert is_sigma_consistent(parse_word("1 3 -3 1", 4)).kind == "positive"
    assert is_sigma_consistent(parse_word("1 3 -3 1", 4)).index == 1
