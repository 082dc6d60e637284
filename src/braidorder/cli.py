"""Decide and exhibit the right-invariant order on braid words.

Words are space-separated nonzero integers: "1 -2" means the first generator
followed by the inverse of the second.  Options (--json; -n N, -nN, --strands N
or --strands=N) may come before or after the arguments, and -- ends them.
Every other token is an argument, so that words like "-2 1" need no --.
"""

from __future__ import annotations

import json
import sys

from .canonical import CanonicalError, canonical_form
from .cutseq import InvalidSequenceError, RewriteError
from .cutseq import format_sequence, parse_sequence, word_to_cutseq
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


def _sign(strands, word):
    """Whether WORD is a positive, negative, or trivial braid."""
    res = sign(*_words(strands, word))
    return {"kind": res.kind, "index": res.index}, str(res)


def _compare(strands, left, right):
    """Order LEFT against RIGHT: prints <, =, or >."""
    order = compare(*_words(strands, left, right))
    out = {Ordering.LESS: "<", Ordering.EQUAL: "=", Ordering.GREATER: ">"}[order]
    return {"order": out}, out


def _canonical(strands, word):
    """The canonical form of WORD."""
    res = canonical_form(*_words(strands, word))
    text, kind, index = format_word(res.word), res.sign.kind, res.sign.index
    return {"word": text, "kind": kind, "index": index, "iterations": res.iterations}, text


def _cutseq(strands, word):
    """The reduced cutting sequence of WORD's curve diagram."""
    seq = word_to_cutseq(*_words(strands, word))
    text = format_sequence(seq)
    return {"sequence": text, "strands": seq.n}, text


def _validate(strands, sequence):
    """Whether SEQUENCE is realized by an actual curve diagram."""
    res = validate(parse_sequence(sequence))
    return {"valid": res.ok, "reason": res.reason}, "valid" if res.ok else f"invalid: {res.reason}"


def _equal(strands, left, right):
    """Whether LEFT and RIGHT are the same braid.

    By Dynnikov coordinates, in time quadratic in the word lengths."""
    res = braid_equal(*_words(strands, left, right))
    return {"equal": res}, "true" if res else "false"


# name: (function of -n and the arguments to (JSON, text), arguments, whether -n applies)
COMMANDS = {
    "sign": (_sign, ("WORD",), True),
    "compare": (_compare, ("LEFT", "RIGHT"), True),
    "canonical": (_canonical, ("WORD",), True),
    "cutseq": (_cutseq, ("WORD",), True),
    "validate": (_validate, ("SEQUENCE",), False),
    "equal": (_equal, ("LEFT", "RIGHT"), True),
}


def _usage(command: str | None) -> str:
    if command is None:
        return "Usage: braidorder [OPTIONS] COMMAND [ARGS]..."
    return f"Usage: braidorder {command} [OPTIONS] {' '.join(COMMANDS[command][1])}"


def _help(command: str | None, code: int = 0) -> int:
    """Print ``command``'s help (the top level's if None); return ``code``."""
    if command is None:
        about = [*__doc__.splitlines(), "", "Commands:"]
        about += [f"  {c:<10} {COMMANDS[c][0].__doc__.splitlines()[0]}" for c in COMMANDS]
    else:
        run, _, takes_strands = COMMANDS[command]
        about = [line.strip() for line in run.__doc__.splitlines()] + ["", "Options:"]
        about += ["  -n, --strands N  number of strands (default: inferred)"] * takes_strands
        about += ["  --json           emit JSON", "  --help           show this message"]
    print(_usage(command), "", *about, sep="\n", file=sys.stderr if code else sys.stdout)
    return code


def _usage_error(command: str | None, message: str) -> int:
    command_ = f"{command} " if command else ""
    print(_usage(command), f"Try 'braidorder {command_}--help' for help.", "", f"Error: {message}",
          sep="\n", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    """Run ``braidorder`` on ``argv`` (default ``sys.argv[1:]``) and return
    the exit code: 0 an answer, 1 bad input (``Error: ...`` on stderr), 2 a
    usage error, 3 an error that only a bug can raise."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] == "--help":
        return _help(None, 0 if argv else 2)
    command, tokens = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        return _usage_error(None, f"No such command {command!r}.")
    run, names, takes_strands = COMMANDS[command]
    args, strands, as_json = [], None, False
    for token in tokens:
        if token == "--":
            args += tokens
        elif token == "--help":
            return _help(command)
        elif token == "--json":
            as_json = True
        elif takes_strands and token in ("-n", "--strands"):
            strands = next(tokens, None)
            if strands is None:
                return _usage_error(command, f"Option {token!r} requires an argument.")
        elif takes_strands and token.startswith(("-n", "--strands=")):
            strands = token[2:] if token[1] == "n" else token[len("--strands="):]
        else:
            args.append(token)
    try:
        strands = None if strands is None else int(strands)
    except ValueError:
        message = f"Invalid value for '-n' / '--strands': {strands!r} is not a valid integer."
        return _usage_error(command, message)
    if len(args) < len(names):
        return _usage_error(command, f"Missing argument {names[len(args)]!r}.")
    if len(args) > len(names):
        extra = args[len(names):]
        s = "s" if len(extra) > 1 else ""
        return _usage_error(command, f"Got unexpected extra argument{s} ({' '.join(extra)})")
    try:
        data, text = run(strands, *args)
    except (WordError, InvalidSequenceError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    except (RewriteError, CanonicalError, AmbiguityError) as exc:
        print(f"internal error (a bug): {exc}", file=sys.stderr)
        return 3
    print(json.dumps(data) if as_json else text)
    return 0
