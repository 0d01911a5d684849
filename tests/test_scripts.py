"""The scripts under scripts/ run end to end on small inputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_fuzz_differential_runs_every_round():
    run = _run(
        "scripts/fuzz_differential.py", "--nfa-trials", "20", "--containment-pairs", "20",
        "--probe-queries", "5", "--boundedness-queries", "3",
    )
    assert run.returncode == 0, run.stdout + run.stderr
    rounds = re.findall(r"^(\w+): \d+ instances, ok, ", run.stdout, re.MULTILINE)
    assert rounds == ["membership", "containment", "join", "probes", "boundedness", "parse"]


def test_qbf_demo_agrees_with_the_solver():
    run = _run("scripts/qbf_demo.py")
    assert run.returncode == 0, run.stdout + run.stderr
    assert "agrees with the solver" in run.stdout
