"""Command line front end."""

from __future__ import annotations

import json

import click

from .canonical import CanonicalError, canonical_form
from .cutseq import (
    InvalidSequenceError,
    RewriteError,
    format_sequence,
    parse_sequence,
    word_to_cutseq,
)
from .geometry import AmbiguityError, validate
from .order import Ordering, braid_equal, compare, sign
from .words import BraidWord, WordError, format_word, parse_letters, parse_word


def _words(n: int | None, *texts: str) -> list[BraidWord]:
    """The words of ``texts``, each parsed once; without ``n``, on as many
    strands as the largest index in them needs.  With ``n`` each text is
    checked in full before the next, so the first faulty one is reported."""
    if n is not None:
        return [parse_word(text, n) for text in texts]
    letters = [parse_letters(text) for text in texts]
    n = max([2] + [abs(k) + 1 for word in letters for k in word])
    return [BraidWord(n, word) for word in letters]


def _emit(as_json: bool, data: dict, text: str) -> None:
    click.echo(json.dumps(data) if as_json else text)


strands_option = click.option(
    "-n", "--strands", type=int, default=None, help="number of strands (default: inferred)"
)
json_option = click.option("--json", "as_json", is_flag=True, help="emit JSON")

# words like "-2 1" and sequence texts like "-1 _0" start with a dash;
# don't let them parse as options
word_args = {"ignore_unknown_options": True}


class _Group(click.Group):
    """The one map from errors to exit codes: bad input exits 1 with click's
    one-line message, and an error that only a bug can raise exits 3.
    Click's own usage errors exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (WordError, InvalidSequenceError) as exc:
            raise click.ClickException(str(exc)) from exc
        except (RewriteError, CanonicalError, AmbiguityError) as exc:
            click.echo(f"internal error (a bug): {exc}", err=True)
            ctx.exit(3)


@click.group(cls=_Group)
def main():
    """Decide and exhibit the right-invariant order on braid words.

    Words are space-separated nonzero integers: "1 -2" means the first
    generator followed by the inverse of the second.
    """


@main.command("sign", context_settings=word_args)
@click.argument("word")
@strands_option
@json_option
def sign_cmd(word, strands, as_json):
    """Whether WORD is a positive, negative, or trivial braid."""
    res = sign(*_words(strands, word))
    _emit(as_json, {"kind": res.kind, "index": res.index}, str(res))


@main.command("compare", context_settings=word_args)
@click.argument("left")
@click.argument("right")
@strands_option
@json_option
def compare_cmd(left, right, strands, as_json):
    """Order LEFT against RIGHT: prints <, =, or >."""
    order = compare(*_words(strands, left, right))
    out = {Ordering.LESS: "<", Ordering.EQUAL: "=", Ordering.GREATER: ">"}[order]
    _emit(as_json, {"order": out}, out)


@main.command("canonical", context_settings=word_args)
@click.argument("word")
@strands_option
@json_option
def canonical_cmd(word, strands, as_json):
    """The canonical form of WORD."""
    res = canonical_form(*_words(strands, word))
    text = format_word(res.word)
    data = {
        "word": text,
        "kind": res.sign.kind,
        "index": res.sign.index,
        "iterations": res.iterations,
    }
    _emit(as_json, data, text)


@main.command("cutseq", context_settings=word_args)
@click.argument("word")
@strands_option
@json_option
def cutseq_cmd(word, strands, as_json):
    """The reduced cutting sequence of WORD's curve diagram."""
    seq = word_to_cutseq(*_words(strands, word))
    text = format_sequence(seq)
    _emit(as_json, {"sequence": text, "strands": seq.n}, text)


@main.command("validate", context_settings=word_args)
@click.argument("sequence")
@json_option
def validate_cmd(sequence, as_json):
    """Whether SEQUENCE is realized by an actual curve diagram."""
    res = validate(parse_sequence(sequence))
    text = "valid" if res.ok else f"invalid: {res.reason}"
    _emit(as_json, {"valid": res.ok, "reason": res.reason}, text)


@main.command("equal", context_settings=word_args)
@click.argument("left")
@click.argument("right")
@strands_option
@json_option
def equal_cmd(left, right, strands, as_json):
    """Whether LEFT and RIGHT are the same braid.

    Both words act on the Dynnikov coordinates of the identity, LEFT and
    then RIGHT reversed and inverted; true means the coordinates come back
    unchanged, that is LEFT and RIGHT have the same coordinates.  This
    takes time quadratic in the word lengths.
    """
    res = braid_equal(*_words(strands, left, right))
    _emit(as_json, {"equal": res}, "true" if res else "false")
