"""The outputs README.md shows are the program's: every `susyrad ...` command
shown with output prints those lines, and the library block prints what its
comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from susyrad.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def _shown_commands():
    """(argv, shown lines) for each command in a sh block that the next
    lines, up to a blank or comment line, show the output of."""
    cases = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("susyrad "):
                shown = []
                for out in lines[i + 1:]:
                    if not out or out.startswith("#"):
                        break
                    shown.append(out)
                if shown:
                    cases.append((shlex.split(line)[1:], shown))
    return cases


def _matches(out_lines, shown):
    """Whether out_lines are the shown lines, where a line that starts with
    '...' stands for any lines."""
    pattern = "\n".join(".*?" if line.strip().startswith("...") else re.escape(line)
                        for line in shown)
    return re.fullmatch(pattern, "\n".join(out_lines), flags=re.S) is not None


def test_readme_shows_at_least_two_outputs():
    assert len(_shown_commands()) >= 2


@pytest.mark.parametrize("argv, shown", _shown_commands(),
                         ids=[" ".join(argv) for argv, _ in _shown_commands()])
def test_readme_command_prints_the_lines_shown(argv, shown, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert _matches(out, shown), "\n".join(out)


def test_readme_library_block_prints_what_its_comments_show():
    (block,) = _blocks("python")
    shown = [line.split("  # ", 1)[1].strip() for line in block.splitlines()
             if line.startswith("print(") and "  # " in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == shown
