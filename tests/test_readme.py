"""README's examples run as written, so a removed or renamed name or flag
cannot stay in the documentation."""

import re
import shlex
import warnings
from pathlib import Path

from tfsqueeze.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(README), "exec"), {})


def cli_examples() -> list[list[str]]:
    """The argv of each 'tfsqueeze ...' line of README's plain code blocks,
    in order, with backslash continuations joined and comments dropped."""
    blocks = re.findall(r"```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("tfsqueeze ")]


def test_cli_examples_run(tmp_path, monkeypatch):
    # later commands read what earlier ones wrote under out/
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert len(examples) == 8
    for argv in examples:
        assert main(argv) == 0, argv
