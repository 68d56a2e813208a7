"""Every ``$ qmod ...`` example in README.md prints what the README shows.

An example is a ``$ qmod`` line inside a fenced block; its expected output
is the lines after it, up to the next ``$`` line or the end of the block.
A line ``...``, indented or not, stands for any run of lines.
"""

import re
import shlex
from pathlib import Path

import pytest

from qmod.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    examples, fenced, shown = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced, shown = not fenced, None
        elif fenced and line.startswith("$ "):
            shown = []
            examples.append((line[2:], shown))
        elif shown is not None:
            shown.append(line)
    return [(cmd, shown) for cmd, shown in examples if cmd.startswith("qmod ")]


def _pattern(shown) -> str:
    return "".join(r"(?:.*\n)*?" if line.strip() == "..." else re.escape(line) + r"\n"
                   for line in shown)


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 12


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, command, shown):
    rc = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert rc == 0
    assert shown, command
    assert re.fullmatch(_pattern(shown), out), out
