"""The README's examples run as written.

The Python snippet is executed as is, and every command of the
``Examples:`` block runs through `cli.run` in a scratch directory and must
exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from shearkit.cli import EXIT_OK, run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _fenced_block(text: str, language: str, after: str = "") -> str:
    start = text.index(after) if after else 0
    match = re.compile(rf"```{language}\n(.*?)```", re.S).search(text, start)
    return match.group(1)


def _example_commands() -> list[list[str]]:
    block = _fenced_block(README, "sh", after="Examples:").replace("\\\n", " ")
    commands = []
    for line in block.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            argv = shlex.split(line)
            assert argv[0] == "shearkit", line
            commands.append(argv[1:])
    return commands


def test_python_snippet_runs():
    exec(compile(_fenced_block(README, "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", _example_commands(), ids=lambda argv: " ".join(argv[:2]))
def test_example_command_exits_zero(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_OK
