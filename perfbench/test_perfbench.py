"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from check import Checker  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

MODULES = run.load_modules()
TRACED = worker.load_modules(run.ROOT)


def test_same_seed_same_inputs():
    for workload in WORKLOADS:
        first, again = generate(workload, 7), generate(workload, 7)
        assert [(i.argv, i.files) for i in first] == [(i.argv, i.files) for i in again]
        other = generate(workload, 8)
        assert [i.files for i in first] != [i.files for i in other]


def test_pass_profile_does_not_depend_on_seed():
    for workload in WORKLOADS:
        a = sorted((i.kind, i.template) for i in generate(workload, 1))
        b = sorted((i.kind, i.template) for i in generate(workload, 2))
        assert a == b
        assert len(a) >= 100


def _answer(cli, item, workdir: Path) -> str:
    for name, text in item.files:
        (workdir / name).write_text(text, encoding="utf-8")
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(item.argv))
    finally:
        os.chdir(cwd)
    return worker.canonical(rc, out.getvalue())


def test_catalogue_answers_match(tmp_path):
    """One item of every template and kind, checked like a benchmark run."""
    checker = Checker(MODULES)
    for workload in WORKLOADS:
        seen = set()
        for item in generate(workload, 0):
            key = (item.kind, item.template)
            if key in seen:
                continue
            seen.add(key)
            line = _answer(TRACED["cli"], item, tmp_path)
            assert checker.failure(item, line) is None, (workload, key, line)
            if item.kind in ("contains", "member"):
                # the catalogue's own claim, apart from the program's answer
                expected = item.expect["contained" if item.kind == "contains" else "member"]
                assert checker.reference(item) == expected, (workload, key)


def test_wrappers_restore_originals(tmp_path):
    before = {
        (mod, attr): getattr(TRACED[mod], attr) for mod, attr, _ in tracing.TARGETS
    }
    tracer = tracing.Tracer(TRACED)
    tracer.install()
    try:
        for (mod, attr), original in before.items():
            assert getattr(TRACED[mod], attr) is not original
            assert getattr(TRACED[mod], attr).__wrapped__ is original
        item = next(i for i in generate("small-queries", 0) if i.template == "claim")
        line = _answer(TRACED["cli"], item, tmp_path)
    finally:
        tracer.uninstall()
    for (mod, attr), original in before.items():
        assert getattr(TRACED[mod], attr) is original
    assert line.startswith("0|")
    layers = tracing.summary(tracer.spans, 0)
    assert layers["boundedness.checks"] == 1
    assert layers["expansion.enumerate_yields"] > 0
    assert layers["homomorphism.contained_calls"] == 1
    assert layers["succinct_nfa.membership_calls"] == 0


def test_self_time_excludes_children():
    spans = [
        ["a", -1, 0.0, 1.0, 0, None],
        ["b", 0, 0.1, 0.4, 0, None],
        ["c", 1, 0.2, 0.3, 0, None],
    ]
    stats = tracing._by_name(spans)
    assert abs(stats["a"]["self_ms"] - 700.0) < 1e-6
    assert abs(stats["b"]["self_ms"] - 200.0) < 1e-6
    assert abs(stats["c"]["self_ms"] - 100.0) < 1e-6
