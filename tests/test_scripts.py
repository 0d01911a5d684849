"""The scripts under scripts/ run end to end on small inputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        **kwargs,
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


def test_qbf_demo_reports_bad_bytes_alike_from_stdin_and_a_file(tmp_path):
    bad = tmp_path / "bad.qbf"
    bad.write_bytes(b"ab\xff")
    from_file = _run("scripts/qbf_demo.py", str(bad))
    with bad.open("rb") as fh:
        from_stdin = _run("scripts/qbf_demo.py", "-", stdin=fh)
    for run in (from_file, from_stdin):
        assert run.returncode == 64, run.stderr
        assert "Traceback" not in run.stderr
    assert from_file.stderr == from_stdin.stderr
    assert from_file.stderr.startswith("input error: 'utf-8' codec can't decode byte 0xff")


def test_qbf_demo_reports_a_bad_literal_as_input_error(tmp_path):
    formula = tmp_path / "bad.qbf"
    formula.write_text("forall 1..1\nexists 2..2\n1 2 9 0\n")
    run = _run("scripts/qbf_demo.py", str(formula))
    assert run.returncode == 64
    assert run.stderr == "input error: literal out of range: 9 (line 3, col 1)\n"
