"""Smoke runs of the experiment scripts on small arguments."""

import os
import subprocess
import sys

import pytest

import qgroth

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("dual_canonical_experiment.py", ["A2", "0,1", "2"]),
        ("hall_specialization.py", ["A2", "2", "2"]),
        ("inverse_series_table.py", ["A3", "12"]),
        ("inverse_series_table.py", ["E8", "60"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qgroth.__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
