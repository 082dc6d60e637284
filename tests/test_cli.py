import importlib.util
import json
import sys
from pathlib import Path

import pytest

import braidorder
from braidorder import canonical, cli
from braidorder.canonical import CanonicalError
from braidorder.cutseq import RewriteError
from braidorder.geometry import AmbiguityError
from conftest import run_cli as run

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cold_start.py"
spec = importlib.util.spec_from_file_location("cold_start", SCRIPT)
cold_start = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cold_start)


def test_sign_plain():
    r = run("sign", "-n", "3", "1")
    assert r.exit_code == 0
    assert r.output.strip() == "positive i=1"


def test_sign_trivial_empty_word():
    r = run("sign", "-n", "3", "")
    assert r.exit_code == 0
    assert r.output.strip() == "trivial"


def test_sign_negative_word():
    r = run("sign", "-n", "3", "-2 -1 2 2 2 -1 2 -1")
    assert r.exit_code == 0
    assert r.output.strip() == "negative i=1"


def test_sign_json():
    r = run("sign", "--json", "-n", "3", "1 -2")
    assert r.exit_code == 0
    assert json.loads(r.output) == {"kind": "positive", "index": 1}


def test_sign_infers_strands():
    r = run("sign", "1 -2")
    assert r.exit_code == 0
    assert r.output.strip() == "positive i=1"


def test_compare():
    assert run("compare", "-n", "3", "", "1 -2").output.strip() == "<"
    assert run("compare", "1 -2", "1 -2").output.strip() == "="
    assert run("compare", "1", "1 -2").output.strip() == ">"


def test_compare_json():
    r = run("compare", "--json", "1 -2", "1")
    assert r.exit_code == 0
    assert json.loads(r.output) == {"order": "<"}


def test_canonical():
    r = run("canonical", "1 2 -1")
    assert r.exit_code == 0
    assert r.output.strip() == "-2 1 2"


def test_canonical_of_trivial_prints_empty():
    r = run("canonical", "-n", "3", "1 -1")
    assert r.exit_code == 0
    assert r.output.strip() == ""


def test_canonical_fixed_point_word():
    r = run("canonical", "2 1 2 2 1 2 2 1 2")
    assert r.exit_code == 0
    assert r.output.strip() == "2 1 2 2 1 2 2 1 2"


def test_canonical_json_carries_sign_and_iterations():
    r = run("canonical", "--json", "1 2 -1")
    data = json.loads(r.output)
    assert data["word"] == "-2 1 2"
    assert data["kind"] == "positive"
    assert data["index"] == 1
    assert data["iterations"] >= 1


def test_cutseq():
    r = run("cutseq", "-n", "3", "1")
    assert r.exit_code == 0
    assert r.output.strip() == "_0 ^ _2 _1 v _3 _4"


def test_cutseq_json():
    r = run("cutseq", "--json", "-n", "3", "1 -2")
    data = json.loads(r.output)
    assert data == {
        "sequence": "_0 ^ 1 v _3 v _1 v 3 ^ _2 ^ _4",
        "strands": 3,
    }


def test_validate_valid():
    r = run("validate", "_0 _1 _2 _3")
    assert r.exit_code == 0
    assert r.output.strip() == "valid"


def test_validate_invalid_gives_reason():
    r = run("validate", "_0 ^ 0 ^ _1 _2 _3 _4")
    assert r.exit_code == 0
    assert r.output.strip().startswith("invalid: ")


def test_validate_json():
    r = run("validate", "--json", "_0 ^ _2 _1 ^ _3")
    data = json.loads(r.output)
    assert data["valid"] is False
    assert "cross" in data["reason"]


def test_validate_rejects_malformed_text():
    r = run("validate", "_0 ^ ^ _1 _2 _3")
    assert r.exit_code == 1


def test_validate_text_starting_with_minus_is_not_an_option():
    r = run("validate", "-1 _0")
    assert r.exit_code == 1
    assert "bad token" in r.stderr
    r = run("validate", "--json", "-1 _0")
    assert r.exit_code == 1
    assert "bad token" in r.stderr


@pytest.mark.parametrize("token", ["_01", "01", "+1", "-1", "_+1", "1_0", "\u0663", "_"])
def test_validate_refuses_a_token_outside_the_sequence_grammar(token):
    # the README's grammar: ^, v, _k or k, k in ASCII digits, no leading zero
    r = run("validate", "--", f"_0 ^ {token} v _1 _2 _3")
    assert r.exit_code == 1
    assert r.stderr.strip() == f"Error: bad token: {token!r}"
    assert run("validate", "_0 ^ 1 v _1 _2 _3").exit_code == 0


def test_equal():
    r = run("equal", "-n", "4", "1 2 -3 2 -1", "-2 -3 1 -2 1 3 2")
    assert r.exit_code == 0
    assert r.output.strip() == "true"
    r = run("equal", "1", "2")
    assert r.output.strip() == "false"


def test_equal_json():
    r = run("equal", "--json", "-n", "4", "1 2 -3 2 -1", "-2 -3 1 -2 1 3 2")
    assert json.loads(r.output) == {"equal": True}


def test_equal_on_long_words():
    # the free-group images of such words grow exponentially; the
    # coordinates answer at once
    word = " ".join(["1 -2 3 2 -4 1 -3 4"] * 50)
    padded = word.replace("-3 4", "-3 2 3 2 -3 -2 -3 4", 20)
    r = run("equal", word, padded)
    assert (r.exit_code, r.output.strip()) == (0, "true")
    r = run("equal", "1 " + word, word)
    assert (r.exit_code, r.output.strip()) == (0, "false")


def test_words_starting_with_minus_are_not_options():
    r = run("equal", "-2 -3 1 -2 1 3 2", "1 2 -3 2 -1")
    assert r.exit_code == 0
    assert r.output.strip() == "true"


@pytest.mark.parametrize(
    "spelling", [("-n", "{}"), ("-n{}",), ("--strands", "{}"), ("--strands={}",)]
)
def test_strand_count_spellings_before_and_after_the_word(spelling):
    # "2" needs 3 strands, so the count is seen to be read
    out_of_range = "Error: letter 2 out of range for 2 strands\n"
    for n, expected in [(3, (0, "positive i=2\n")), (2, (1, out_of_range))]:
        option = [part.format(n) for part in spelling]
        for args in (["sign", *option, "2"], ["sign", "2", *option]):
            r = run(*args)
            assert (r.exit_code, r.output) == expected, args


def test_json_after_the_word():
    r = run("sign", "1", "--json")
    assert (r.exit_code, json.loads(r.output)) == (0, {"kind": "positive", "index": 1})


@pytest.mark.parametrize(
    "args, message",
    [
        (("sign", "--", "-n"), "not an integer letter: '-n'"),
        (("sign", "-x"), "not an integer letter: '-x'"),
        (("validate", "-x"), "bad token: '-x'"),
    ],
)
def test_dash_leading_tokens_that_are_no_option_are_arguments(args, message):
    r = run(*args)
    assert (r.exit_code, r.stdout, r.stderr) == (1, "", f"Error: {message}\n")


def test_a_short_option_cluster_is_one_argument():
    r = run("sign", "-1n")
    assert (r.exit_code, r.stderr) == (1, "Error: not an integer letter: '-1n'\n")


def test_no_arguments_exit_2_naming_every_command():
    r = run()
    assert r.exit_code == 2
    for command in ("sign", "compare", "canonical", "cutseq", "validate", "equal"):
        assert f"\n  {command} " in r.output, command


@pytest.mark.parametrize("args", [("--help",), ("sign", "--help"), ("validate", "x", "--help")])
def test_help_exits_0_on_stdout(args):
    r = run(*args)
    assert (r.exit_code, r.stderr) == (0, "")
    assert r.stdout.startswith("Usage: braidorder ")


def test_parse_error_exits_nonzero():
    r = run("sign", "-n", "2", "3")
    assert r.exit_code == 1
    r = run("sign", "one")
    assert r.exit_code == 1


def test_letters_int_would_read_differently_exit_1():
    for word in ("1_0", "+1", "01"):
        r = run("sign", word)
        assert r.exit_code == 1
        assert "not an integer letter" in r.stderr
    r = run("compare", "1", "1_0")
    assert r.exit_code == 1
    assert "not an integer letter" in r.stderr


def test_compare_reports_the_first_fault_in_text_order():
    # with -n the left text is checked in full before the right one is
    # read; without it both texts' letters are read to infer the count
    r = run("compare", "-n", "2", "3", "x")
    assert (r.exit_code, r.stderr) == (1, "Error: letter 3 out of range for 2 strands\n")
    r = run("compare", "3", "x")
    assert (r.exit_code, r.stderr) == (1, "Error: not an integer letter: 'x'\n")


def test_overlong_digit_runs_exit_1_without_traceback():
    # past 4,300 digits int() raises a plain ValueError
    digits = "1" * 5_000
    for args, message in [
        (("validate", "--", f"_0 ^ {digits} v _1 _2 _3"), "bad token"),
        (("sign", digits), "out of range"),
    ]:
        r = run(*args)
        assert r.exit_code == 1
        assert message in r.stderr
        assert isinstance(r.exception, SystemExit), repr(r.exception)


def test_parse_errors_quote_a_long_token_briefly():
    for args, message in [
        (("sign", "1 0" + "1" * 5_000), "not an integer letter: '0111"),
        (("validate", "_0 ^ x" + "y" * 5_000 + " _1"), "bad token: 'xyyy"),
    ]:
        r = run(*args)
        assert r.exit_code == 1
        assert message in r.stderr
        assert "(5001 characters)" in r.stderr
        assert len(r.stderr) < 100


def test_strand_mismatch_exits_nonzero():
    r = run("compare", "-n", "2", "1", "2")
    assert r.exit_code == 1


def test_too_many_strands_exits_1():
    r = run("sign", "1000000000")
    assert r.exit_code == 1
    assert "out of range" in r.stderr
    r = run("sign", "-n", "-3", "1")
    assert (r.exit_code, r.stderr) == (1, "Error: strand count -3 out of range 2..10000\n")
    r = run("validate", "_0 ^ _99999999")
    assert r.exit_code == 1
    assert "out of range" in r.stderr


@pytest.mark.parametrize(
    "args", [("sign", "1 " + "9" * 4000), ("sign", "-n", "3", "9" * 4000)], ids=["strands", "letter"]
)
def test_huge_number_exits_1_with_a_short_message(args):
    r = run(*args)
    assert r.exit_code == 1
    assert "out of range" in r.stderr and "-bit number" in r.stderr
    assert len(r.stderr) < 100
    assert "Traceback" not in r.output


@pytest.mark.parametrize(
    "args, message",
    [
        (("sign",), "Missing argument 'WORD'."),
        (("compare", "1", "2", "3"), "Got unexpected extra argument (3)"),
        (("frobnicate", "1"), "No such command 'frobnicate'."),
        (("sign", "-n", "x", "1"), "Invalid value for '-n' / '--strands': 'x' is not a valid integer."),
        # int() takes these, but -n takes only a letter's spelling of a number
        *[(("sign", "-n", n, "1"), f"Invalid value for '-n' / '--strands': {n!r} is not a valid "
           "integer.") for n in ("1_0", "+3", "03", "\u0663", " 3")],
        (("sign", "-n", "9" * 5000, "1"),
         "Invalid value for '-n' / '--strands': '99999999999999999999'... (5000 characters) "
         "is not a valid integer."),
        (("sign", "1", "--strands"), "Option '--strands' requires an argument."),
        # validate takes no -n, so "-n" is its argument and "3" one too many
        (("validate", "-n", "3"), "Got unexpected extra argument (3)"),
    ],
    ids=[
        "missing argument", "extra argument", "unknown subcommand", "non-integer -n",
        "-n underscore", "-n plus", "-n leading zero", "-n arabic-indic digit", "-n space",
        "-n past int()'s digits", "no -n value",
        "-n of validate",
    ],
)
def test_usage_errors_exit_2_with_clicks_message(args, message):
    r = run(*args)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr.startswith("Usage: braidorder ")
    assert r.stderr.endswith(f"\n\nError: {message}\n")


@pytest.mark.parametrize("error", [RewriteError, CanonicalError, AmbiguityError])
def test_internal_error_exits_3_with_one_line(monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("invariant broken")

    monkeypatch.setattr(canonical, "canonical_form", broken)
    r = run("canonical", "1 2")
    assert r.exit_code == 3
    assert r.stdout == ""
    assert r.stderr == "internal error (a bug): invariant broken\n"


def test_many_missing_holes_exit_1_with_a_short_message():
    r = run("validate", "_0 _10001")
    assert r.exit_code == 1
    assert "missing holes: 10000 of 10002, the first 8: [1, 2, 3, 4, 5, 6, 7, 8]" in r.stderr
    assert len(r.stderr) < 120


def test_import_adds_only_the_standard_library():
    """Each command pays for what ``braidorder.cli`` imports: only the
    standard library, and not ``dataclasses`` (which imports ``inspect``,
    ``ast`` and ``dis``) nor ``json``, which only ``--json`` needs."""
    added = cold_start.added_modules(Path(cli.__file__).resolve().parents[1],
                                     "import braidorder, braidorder.cli")
    assert "braidorder.cli" in added
    foreign = {name.partition(".")[0] for name in added} - {"braidorder"} - sys.stdlib_module_names
    assert not foreign, sorted(foreign)
    assert not {"dataclasses", "inspect", "json"} & set(added), added


def braidorder_modules(code):
    """The package's modules that running ``code`` in a fresh interpreter
    imports."""
    added = cold_start.added_modules(Path(cli.__file__).resolve().parents[1], code)
    return {name for name in added if name.partition(".")[0] == "braidorder"}


def test_the_start_compiles_only_the_command_line_and_words():
    added = cold_start.added_modules(Path(cli.__file__).resolve().parents[1],
                                     "import braidorder, braidorder.cli")
    assert added == ["__future__", "braidorder", "braidorder.cli", "braidorder.words"]


@pytest.mark.parametrize(
    "args, runs",
    [
        (["sign", "1 -2"], {"order", "cutseq"}),
        (["compare", "1", "-2"], {"order", "cutseq"}),
        (["equal", "1 2 1", "2 1 2"], {"order", "cutseq"}),
        (["canonical", "1 -2"], {"cutseq", "canonical"}),
        (["cutseq", "1 -2"], {"cutseq"}),
        (["validate", "_0 ^ _2 _1 v _3"], {"cutseq", "geometry"}),
    ],
    ids=["sign", "compare", "equal", "canonical", "cutseq", "validate"],
)
def test_each_command_imports_only_the_modules_it_runs(args, runs):
    code = f"from braidorder.cli import main; main({args!r})"
    expected = {"braidorder", "braidorder.cli", "braidorder.words"}
    assert braidorder_modules(code) == expected | {f"braidorder.{name}" for name in runs}


def test_every_public_name_loads_from_its_home_module():
    namespace = {}
    exec("from braidorder import *", namespace)
    for name in braidorder.__all__:
        value = getattr(braidorder, name)
        assert value.__module__.startswith("braidorder."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert namespace[name] is value and vars(braidorder)[name] is value, name
    errors = [name for name in braidorder.__all__ if name.endswith("Error")]
    assert {getattr(braidorder, name).__module__ for name in errors} == {"braidorder.words"}
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        braidorder.no_such_name


def test_a_module_of_the_public_names_is_an_attribute_after_import_braidorder():
    code = "import braidorder; braidorder.geometry.validate"
    assert braidorder_modules(code) == {"braidorder", "braidorder.cutseq",
                                        "braidorder.geometry", "braidorder.words"}
