"""Every `qgroth ...` line of the README's command block runs and exits 0."""

import pathlib
import shlex

import pytest

from qgroth.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _commands():
    text = README.read_text()
    block = text[text.index("## Command line"):].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qgroth ")]


def test_the_command_block_is_found():
    assert len(_commands()) >= 10


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_readme_command_exits_0(argv, capsys):
    assert main(argv) == 0, capsys.readouterr().err
    assert capsys.readouterr().out
