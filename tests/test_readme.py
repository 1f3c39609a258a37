"""The README's library example runs as written, and its command lines parse."""

from __future__ import annotations

import re
from pathlib import Path

from nervecert.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Library example'"
    exec(compile(block.group(1), f"{README}:Library example", "exec"), {})


def test_command_line_examples_parse():
    # parse only: an option the parser no longer has fails here, not in a reader's shell
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no sh block under 'Command line'"
    lines = [line.split("#", 1)[0].split() for line in block.group(1).splitlines()]
    commands = [words[1:] for words in lines if words and words[0] == "nervecert"]
    assert len(commands) >= 8
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)
