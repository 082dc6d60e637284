"""An error message shows at most 20 characters of an input, and its length.

Each site below is fed a value whose text (a string itself, else its repr)
is 100,000 characters long; the message must stay short and name that
length.  Inputs of 20 characters or fewer are shown whole, as the pinned
messages of the other test files check, unless their escapes make the shown
form pass 42 characters: the shown repr itself is cut.
"""

import pytest

from braidorder import BraidWord, CuttingSequence
from braidorder.cutseq import apply_generator, trivial_sequence
from braidorder.geometry import occurrence_order
from braidorder.words import WordError, _brief, parse_word
from conftest import run_cli

LONG = "1" * 100_000
LONG_LIST = ["x" * 99_996]  # its repr is 100,000 characters


@pytest.mark.parametrize(
    "make, start",
    [
        (lambda: BraidWord(3, (LONG,)), "not an integer letter: '1111"),
        (lambda: BraidWord(LONG), "not an integer strand count: '1111"),
        (lambda: CuttingSequence(3, (0, LONG_LIST, 8)), "not a cutting-sequence letter: \"['xx"),
        (lambda: trivial_sequence(LONG_LIST), "not an integer strand count: \"['xx"),
        (lambda: apply_generator(trivial_sequence(3), LONG), "generator index '1111"),
        (lambda: occurrence_order(trivial_sequence(3), LONG),
         "interval must be an int, got '1111"),
        (lambda: setattr(BraidWord(3), LONG, 1), "cannot assign to field '1111"),
    ],
    ids=["word letter", "word strands", "sequence letter", "trivial sequence strands",
         "generator index", "interval", "field name"],
)
def test_a_long_input_is_shown_by_its_start_and_length(make, start):
    with pytest.raises((ValueError, AttributeError)) as e:
        make()
    message = str(e.value)
    assert message.startswith(start)
    assert "(100000 characters)" in message
    assert len(message) < 100


@pytest.mark.parametrize(
    "args, start",
    [
        ((LONG, "1"), "No such command '1111"),
        (("compare", "1", "2", LONG), "Got unexpected extra argument ('1111"),
    ],
    ids=["unknown command", "extra argument"],
)
def test_a_long_command_line_argument_is_shown_by_its_start_and_length(args, start):
    r = run_cli(*args)
    assert r.exit_code == 2
    message = r.stderr.splitlines()[-1].removeprefix("Error: ")
    assert message.startswith(start)
    assert "(100000 characters)" in message
    assert len(message) < 100


def test_extra_arguments_of_20_characters_are_shown_whole():
    r = run_cli("compare", "1", "2", "3" * 9, "4" * 10)
    assert r.stderr.endswith(f"Error: Got unexpected extra arguments ({'3' * 9} {'4' * 10})\n")
    r = run_cli("compare", "1", "2", "3" * 21)
    assert r.stderr.endswith(
        f"Error: Got unexpected extra argument ({'3' * 20!r}... (21 characters))\n"
    )


def test_a_parsed_word_and_its_constructor_cut_alike():
    # parse_word reads a token as text, BraidWord a letter as a value: both
    # show a 21-character string by its first 20 characters
    token = "+" + "1" * 20
    with pytest.raises(ValueError) as parsed:
        parse_word(token, 3)
    with pytest.raises(ValueError) as built:
        BraidWord(3, (token,))
    assert str(parsed.value) == str(built.value)
    assert str(built.value).endswith("... (21 characters)")


@pytest.mark.parametrize(
    "letter",
    ["\U000e0000" * 20, "\U000e0000" * 100_000, "\x00" * 20],
    ids=["20 tags", "100,000 tags", "20 nulls"],
)
def test_an_unprintable_input_is_cut_by_its_shown_repr(letter):
    # each escape takes 4 to 10 characters, so 20 characters of them would
    # pass the bound
    with pytest.raises(WordError) as e:
        BraidWord(3, (letter,))
    message = str(e.value)
    assert message.startswith("not an integer letter: '\\")
    assert message.endswith(f"... ({len(letter)} characters)")
    assert len(message) < 100


def test_a_short_input_whose_repr_fits_42_characters_is_shown_whole():
    assert _brief("\\" * 20) == repr("\\" * 20)  # the longest repr of 20 printables
    assert _brief("a\tb") == "'a\\tb'"
