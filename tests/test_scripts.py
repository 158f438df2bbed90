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


def test_dual_canonical_experiment_builds_one_report(monkeypatch, capsys):
    # the matching summary and the transition table read the same report
    import importlib.util

    from qgroth import QGroupSide

    spec = importlib.util.spec_from_file_location(
        "dual_canonical_experiment", os.path.join(ROOT, "scripts", "dual_canonical_experiment.py")
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    report = QGroupSide.verify_mainth

    def counted(self, degree):
        calls.append(degree)
        return report(self, degree)

    monkeypatch.setattr(QGroupSide, "verify_mainth", counted)
    monkeypatch.setattr(sys, "argv", ["dual_canonical_experiment.py", "A2", "0,1", "2"])
    script.main()
    out = capsys.readouterr().out
    assert calls == [2]
    assert "simple classes matched" in out and "weight (1, 1)" in out
