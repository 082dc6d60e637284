"""The README and the benchmark's layer map against the code they describe."""

import importlib
import importlib.util
import inspect
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import braidorder
from braidorder.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_public_api_is_the_readme_import_list():
    block = re.search(r"```python\nfrom braidorder import \((.*?)\)", README, re.S)
    names = re.findall(r"\w+", block.group(1))
    assert len(names) == len(set(names))
    assert set(names) == set(braidorder.__all__)
    assert len(braidorder.__all__) == len(set(braidorder.__all__))
    for name in braidorder.__all__:
        assert hasattr(braidorder, name), name


def test_readme_command_lines_print_what_they_say():
    """Each ``braidorder ... # expected`` line; a trailing "..." in the
    comment stands for the rest of the output."""
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("braidorder ")]
    assert len(lines) >= 8
    for line in lines:
        command, _, expected = line.partition(" #")
        expected = expected.strip()
        r = CliRunner().invoke(main, shlex.split(command)[1:])
        assert r.exit_code == 0, line
        out = r.output.strip()
        if expected.endswith("..."):
            assert out.startswith(expected[:-3]), line
        else:
            assert out == expected, line


def test_benchmark_layers_resolve_to_library_functions():
    """``bench/run.py --trace 1`` wraps every function its layer map names."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.SPAN_NAMES) == 19
    for layer, functions in spans.LAYERS.items():
        module = importlib.import_module(f"braidorder.{layer}")
        for name in functions:
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"
