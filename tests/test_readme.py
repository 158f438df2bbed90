"""Every `qgroth ...` line of the README's command block runs and exits 0,
and its `hall` lines print the same in a warm process as in a fresh one."""

import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import qgroth
import qgroth.hall as hall
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


# a request on a (quiver, q) that no README `hall` line uses
OTHER = ["hall", "relations", "--type", "A2", "--q", "3", "--mmax", "1"]


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qgroth.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "qgroth.cli", *argv], capture_output=True, text=True, timeout=120, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [a for a in _commands() if a[0] == "hall"], ids=" ".join)
def test_a_hall_request_shares_its_derived_hall_algebra(argv, capsys, monkeypatch):
    # twice in one process, each time right after a request on another
    # (quiver, q): both runs print what a fresh process prints, and the
    # second reads every Hall number off the first's tallies
    tallies = []
    tally = hall.DerivedHall.hall_numbers

    def spy(self, x, y):
        if (x, y) not in self._g:
            tallies.append((x, y))
        return tally(self, x, y)

    monkeypatch.setattr(hall.DerivedHall, "hall_numbers", spy)
    fresh = _fresh_process(argv)
    counts = []
    for _ in range(2):
        assert main(OTHER) == 0
        capsys.readouterr()
        tallies.clear()
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == fresh
        counts.append(len(tallies))
    assert counts[0] > 0 and counts[1] == 0
