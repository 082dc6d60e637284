"""Fuzzing the input boundary: only documented errors ever escape.

Hypothesis drives the sequence parser, the ``CuttingSequence`` constructor,
``validate`` and every CLI command with token soups, raw text and letter
tuples of every type.  Construction may only raise ``InvalidSequenceError``,
``validate`` on anything that constructs always returns a ``Validation``,
and the CLI exits 0 or 1 without a traceback.
The runs are derandomized and use no example database, so every run draws
the same examples.
"""

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from braidorder import (
    BraidWord,
    CuttingSequence,
    InvalidSequenceError,
    Validation,
    WordError,
    format_sequence,
    parse_sequence,
    parse_word,
    validate,
    word_to_cutseq,
)
from braidorder.cli import main

FUZZ = settings(derandomize=True, max_examples=120, database=None, deadline=None)

# tokens near the valid ones: small values, negatives, junk
TOKENS = st.one_of(
    st.sampled_from(["^", "v", "_", "", "x", "1.5", "-0", "_+1", "^v"]),
    st.integers(-3, 12).map(str),
    st.integers(-3, 12).map(lambda k: f"_{k}"),
)
TEXTS = st.one_of(st.lists(TOKENS, max_size=24).map(" ".join), st.text(max_size=40))
LETTERS = st.one_of(
    st.integers(-6, 24),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True),
    st.text(max_size=2),
)


def _check_parsed(s):
    assert isinstance(validate(s), Validation)
    assert parse_sequence(format_sequence(s)) == s


@FUZZ
@given(TEXTS)
def test_parse_sequence_raises_only_invalid_sequence_error(text):
    try:
        s = parse_sequence(text)
    except InvalidSequenceError:
        return
    _check_parsed(s)


@FUZZ
@given(st.integers(-1, 12), st.lists(LETTERS, max_size=24), st.booleans())
def test_constructor_raises_only_invalid_sequence_error(n, letters, framed):
    if framed:  # between the endpoints _0 and _{n+1}, so the letters are read
        letters = [0, *letters, 2 * n + 2]
    try:
        s = CuttingSequence(n, tuple(letters))
    except InvalidSequenceError:
        return
    _check_parsed(s)


@FUZZ
@given(
    st.integers(2, 6),
    st.lists(st.integers(-5, 5).filter(bool), max_size=8),
    st.lists(st.tuples(st.integers(0, 200), st.integers(0, 6)), min_size=1, max_size=3),
)
def test_validate_on_changed_word_images_returns_a_validation(n, generators, changes):
    """Images of words with arrows flipped or crossing values changed: they
    still construct, and validate must give a verdict on each."""
    word = BraidWord(n, tuple((1 + (abs(g) - 1) % (n - 1)) * (g // abs(g)) for g in generators))
    tokens = format_sequence(word_to_cutseq(word)).split()
    for q, value in changes:
        q %= len(tokens)
        if tokens[q] in ("^", "v"):
            tokens[q] = "v" if tokens[q] == "^" else "^"
        elif not tokens[q].startswith("_"):
            tokens[q] = str(value % (n + 1))
    _check_parsed(parse_sequence(" ".join(tokens)))


@FUZZ
@given(st.lists(st.one_of(st.integers(-12, 12).map(str), st.sampled_from(["x", ""])), max_size=12))
def test_parse_word_raises_only_word_error(tokens):
    try:
        parse_word(" ".join(tokens), 6)
    except WordError:
        pass


@settings(FUZZ, max_examples=80)
@given(st.one_of(TEXTS, TEXTS.map("-".__add__)), st.booleans())
def test_cli_validate_exits_zero_or_one_without_traceback(text, as_json):
    # a text starting with "-" is read as the argument; only one that could
    # spell a long option of the command ("--json", "--help") needs "--"
    args = ["validate", "--json"] if as_json else ["validate"]
    args += ["--", text] if text.startswith("--") else [text]
    r = CliRunner().invoke(main, args)
    assert r.exit_code in (0, 1), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert "Traceback" not in r.output


# word tokens: valid letters, spellings int() would take, indices past any
# strand count, and stray symbols; at most 10 of them, so that canonical and
# cutseq stay fast on the valid words
LETTERS_OK = st.integers(-9, 9).filter(bool).map(str)
WORD_TOKENS = st.one_of(
    LETTERS_OK,
    st.sampled_from(["0", "+1", "01", "-02", "1_0", "\u0663", "\uff11", "1.5"]),
    st.sampled_from(["10000", "99999999", "1" * 30, "-" + "9" * 5_000]),
    st.sampled_from(["-", "--", "x", "_1", "^", ",", "-n", "--json"]),
)
WORDS = st.one_of(
    st.lists(LETTERS_OK, max_size=10).map(" ".join),
    st.lists(WORD_TOKENS, max_size=10).map(" ".join),
    st.text(max_size=20),
)


def _invoke_cli(command, texts, strands, as_json):
    args = [command]
    if strands is not None:
        args += ["-n", str(strands)]
    if as_json:
        args.append("--json")
    # as for validate, "--" only when a text could be read as an option:
    # one starting with "--", or a dash followed by a cluster that holds
    # the short option "n" ("-1 n" reads as "-1", " ", "-n")
    if any(t.startswith("--") or (t.startswith("-") and "n" in t) for t in texts):
        args.append("--")
    r = CliRunner().invoke(main, args + list(texts))
    assert r.exit_code in (0, 1), r.output
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert "Traceback" not in r.output


@settings(FUZZ, max_examples=60)
@given(
    st.sampled_from(["sign", "canonical", "cutseq"]),
    WORDS,
    st.one_of(st.none(), st.integers(0, 11)),
    st.booleans(),
)
def test_cli_word_commands_exit_zero_or_one_without_traceback(command, word, strands, as_json):
    _invoke_cli(command, [word], strands, as_json)


@settings(FUZZ, max_examples=60)
@given(
    st.sampled_from(["compare", "equal"]),
    WORDS,
    WORDS,
    st.one_of(st.none(), st.integers(0, 11)),
    st.booleans(),
)
def test_cli_pair_commands_exit_zero_or_one_without_traceback(command, left, right, strands, as_json):
    _invoke_cli(command, [left, right], strands, as_json)
