"""Closed-loop worker: one client, one process, no threads.

Runs the items of one workload through ``crpqbound.cli.main(argv)``
in-process, one after another, pass after pass, with stdout and stderr
captured.  ``run.py`` starts it in a fresh interpreter so that its peak
memory is the program's own, not the checker's.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the repository root, the argv of every item (relative to the
worker's working directory), the seconds to measure and whether to trace.
Untraced passes run first; with tracing on, the second half of the time
runs traced passes and the spans of the last one are written out.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, summary


def load_modules(root: Path) -> dict:
    """Import crpqbound from ``root/src`` and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import crpqbound
    from crpqbound import boundedness, cli, expansion, homomorphism, succinct_nfa

    where = Path(crpqbound.__file__).resolve()
    if src.resolve() not in where.parents:
        raise RuntimeError(f"crpqbound imported from {where}, not from {src}")
    return {
        "cli": cli,
        "boundedness": boundedness,
        "expansion": expansion,
        "homomorphism": homomorphism,
        "succinct_nfa": succinct_nfa,
    }


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    Dict, set and frozenset churn shaped like a graph search, so that it
    slows down as the analyzer does when other tenants load the CPU.  It
    uses nothing from crpqbound, and runs with the cyclic collector off,
    so neither a change to the program nor the size of its heap moves it.
    """
    gc.disable()
    t0 = perf_counter()
    adj = {}
    for i in range(8000):
        adj.setdefault((i % 1999, "ab"[i % 2]), set()).add((i * 7) % 1999)
    frontier = frozenset(range(0, 1999, 20))
    for step in range(10):
        nxt = set()
        for u in frontier:
            nxt.update(adj.get((u, "ab"[step % 2]), ()))
        frontier = frozenset(nxt)
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


def pin_quiet_cpu(cpus) -> None:
    """Move this process to whichever allowed CPU runs the probe fastest.

    Other tenants slow one CPU at a time by up to half, for tens of
    seconds; the CPUs' slow spells are not in step.  Picking the quicker
    one before each pass keeps most of a run off the slow spells.
    """
    if len(cpus) < 2:
        return
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(speed_probe() for _ in range(3))
    os.sched_setaffinity(0, {min(speed, key=speed.get)})


def canonical(rc, stdout: str) -> str:
    """The parts of an answer a speed-up must keep: verdict, witness,
    rewriting and maximal letters, plus the exit code."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"{rc}|unparsed|{stdout[:200]!r}"
    fields = [report.get(k) for k in ("verdict", "witness", "rewriting", "maximal_letters")]
    return f"{rc}|" + json.dumps(fields)


def run_item(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # the loop must go on; the checker fails the item
        rc = f"exception {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), perf_counter() - t0


def run_passes(cli, items, seconds: float, tracer=None, letters_max_items=0):
    """Whole passes until ``seconds`` have gone by (at least one)."""
    passes = []
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        pin_quiet_cpu(cpus)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        latency, outputs, probes = [], [], []
        for index, argv in enumerate(items):
            probes.append(speed_probe())
            if tracer is None:
                rc, out, dt = run_item(cli, argv)
            else:
                tracer.item = index
                root = tracer.open("cli.main")
                rc, out, dt = run_item(cli, argv)
                tracer.close(root)
            latency.append(dt)
            outputs.append(canonical(rc, out))
        record = {"latency": latency, "probe": probes, "outputs": outputs}
        os.sched_setaffinity(0, cpus)
        if tracer is not None:
            record["layers"] = summary(tracer.spans, letters_max_items)
        passes.append(record)
    return passes


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    modules = load_modules(Path(spec["root"]))
    cli = modules["cli"]
    items = spec["items"]
    seconds = spec["seconds"]
    result = {}
    if not spec["trace"]:
        result["untraced"] = run_passes(cli, items, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        result["untraced"] = run_passes(cli, items, seconds / 2)
        tracer = Tracer(modules)
        tracer.install()
        try:
            result["traced"] = run_passes(
                cli, items, seconds / 2, tracer, spec["letters_max_items"]
            )
        finally:
            tracer.uninstall()
        tracer.dump(spec["spans_path"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:3]))
