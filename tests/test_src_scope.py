"""``src/`` holds only what the library runs: code that only the tests use
belongs in ``tests/referee.py``."""

import ast
import re
from pathlib import Path

import braidorder

ROOT = Path(__file__).resolve().parent.parent


def read_names(nodes, strings=False):
    """The identifiers that ``nodes`` read, as names and attributes; with
    ``strings``, also the parts of every string constant that is a dotted
    name (``bench/spans.py`` names the functions it wraps that way)."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if re.fullmatch(r"[\w.]+", sub.value):
                    found |= set(sub.value.split("."))
    return found


def unused_definitions(root):
    """The top-level functions and classes of ``root/src/braidorder`` that
    nothing outside the tests reaches, as "module.name".

    A definition is reached when ``braidorder.__all__`` holds its name, a
    file of ``bench/`` names it, or a reached definition or a module's
    top-level code (imports aside) reads its name.  A module-level
    ``__getattr__`` is reached too: Python calls it (PEP 562).  Names are
    matched without their modules, so a name that one module reaches keeps
    its namesakes too.  ``scripts/`` does not count as a user."""
    definitions, roots = {}, {"__getattr__", *braidorder.__all__}
    for path in sorted((root / "src" / "braidorder").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{node.name}"] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= read_names([node])
    for path in (root / "bench").glob("*.py"):
        roots |= read_names([ast.parse(path.read_text())], strings=True)
    reached, names = set(), roots
    while new := {q for q, node in definitions.items() if q not in reached and node.name in names}:
        reached |= new
        names = read_names(definitions[q] for q in new)
    return sorted(set(definitions) - reached)


def test_every_src_definition_has_a_user_outside_the_tests():
    assert unused_definitions(ROOT) == []


def test_a_definition_that_only_an_unused_one_reads_is_unused_too(tmp_path):
    package = tmp_path / "src" / "braidorder"
    package.mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (package / "extra.py").write_text(
        "def helper():\n    return 1\n\n\n"
        "def only_tests():\n    return helper()\n\n\n"
        "def _inner():\n    return 2\n\n\n"
        "def benched():\n    return _inner()\n\n\n"
        "def _tabled():\n    return 3\n\n\n"
        "TABLE = {'k': _tabled}\n"
    )
    (tmp_path / "bench" / "layers.py").write_text('LAYERS = {"extra": ("benched",)}\n')
    assert unused_definitions(tmp_path) == ["extra.helper", "extra.only_tests"]
