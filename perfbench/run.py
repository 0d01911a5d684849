"""Benchmark of the crpqbound analyzer: one workload, one seed, one run.

    python3 perfbench/run.py --workload small-queries --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up writes the seed's input files under ``.bench_work/``, times fresh
interpreters answering the first item (``setup_s``), then starts
``worker.py``, which runs the items through ``crpqbound.cli.main`` in a
closed loop for ``--seconds``.  Every answer is checked (``check.py``),
the answers' digest is compared with the one recorded in
``baseline.json``, and the last line printed is the JSON result.  With
``--trace 1`` the result holds the per-layer metrics of traced passes
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import Checker, parse_output  # noqa: E402
from worker import pin_quiet_cpu, speed_probe  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 7
# the speed probe's time on a quiet CPU of the reference machine (2 vCPU
# Xeon, Python 3.11.7), and the probes on each side of an item that give
# the speed it ran at
QUIET_PROBE_S = 0.0028
PROBE_WINDOW = 3
WORKER_TIMEOUT_S = 150

_SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from crpqbound.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = main(sys.argv[2:])
sys.exit(rc)
"""


def _env() -> dict:
    env = dict(os.environ)
    # set iteration order feeds the search order; pin it so that a seed
    # fixes the work, not just the inputs
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def load_modules() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import crpqbound
    from crpqbound import boundedness, expansion, homomorphism, oracle, succinct_nfa, syntax

    where = Path(crpqbound.__file__).resolve()
    if (ROOT / "src").resolve() not in where.parents:
        raise RuntimeError(f"crpqbound imported from {where}, not from this checkout")
    return {
        "boundedness": boundedness,
        "expansion": expansion,
        "homomorphism": homomorphism,
        "oracle": oracle,
        "succinct_nfa": succinct_nfa,
        "syntax": syntax,
    }


def write_inputs(work: Path, items) -> None:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for item in items:
        for name, text in item.files:
            (work / name).write_text(text, encoding="utf-8")


def measure_setup(work: Path, argv) -> tuple:
    """Median time of a fresh interpreter importing crpqbound.cli and
    answering one item, scaled to quiet speed like the item times, and the
    exit codes seen.  One unmeasured start first fills the bytecode cache,
    which users do not pay for on each run."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(ROOT / "src"), *argv]
    cpus = sorted(os.sched_getaffinity(0))
    times, codes = [], set()
    for attempt in range(SETUP_REPEATS + 1):
        pin_quiet_cpu(cpus)  # the child inherits the CPU
        probe = statistics.median(speed_probe() for _ in range(3))
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=work, env=_env(), capture_output=True, timeout=60)
        if attempt:
            times.append((perf_counter() - t0) * QUIET_PROBE_S / probe)
        codes.add(proc.returncode)
    os.sched_setaffinity(0, cpus)
    return statistics.median(times), codes


def run_worker(work: Path, items, seconds: float, trace: bool) -> dict:
    spec = {
        "root": str(ROOT),
        "items": [list(item.argv) for item in items],
        "seconds": seconds,
        "trace": trace,
        "letters_max_items": sum(1 for item in items if item.kind == "analyze-max"),
        "spans_path": str(work / "spans.json"),
    }
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        cwd=work,
        env=_env(),
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def digest(outputs) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


def item_marks(outputs) -> list:
    """Per item: the verdict's first letter and a short hash of the answer."""
    marks = []
    for line in outputs:
        parsed = parse_output(line)
        verdict = parsed[1][0] if parsed else "?"
        marks.append((verdict or "?")[0].upper() + hashlib.sha256(line.encode()).hexdigest()[:8])
    return marks


def compare_digest(workload: str, seed: int, outputs) -> str:
    """One line on how the answers compare with the recorded baseline.

    An item that was inconclusive and is now conclusive is the one change
    a speed-up may make; it is counted apart from every other change.
    """
    path = HERE / "baseline.json"
    recorded = {}
    if path.exists():
        recorded = json.loads(path.read_text(encoding="utf-8")).get("digests", {})
    entry = recorded.get(workload, {}).get(str(seed))
    got = digest(outputs)
    if entry is None:
        return f"digest {got[:16]}: no baseline recorded for {workload} seed {seed}"
    if entry["digest"] == got:
        return f"digest {got[:16]}: matches the baseline"
    now = item_marks(outputs)
    if len(now) != len(entry["items"]):
        return f"digest {got[:16]}: DIFFERS from the baseline (item count changed)"
    changed = [i for i, (a, b) in enumerate(zip(entry["items"], now)) if a != b]
    decided = [i for i in changed if entry["items"][i][0] == "I" and now[i][0] != "I"]
    return (
        f"digest {got[:16]}: DIFFERS from the baseline: {len(changed)} items changed, "
        f"{len(decided)} of them from inconclusive to conclusive {decided}, "
        f"{len(changed) - len(decided)} other changes {sorted(set(changed) - set(decided))}"
    )


def percentile(values, q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def item_latency(passes, scaled: bool = True) -> list:
    """Each item's time, as the median over the run's passes.

    Other tenants slow the CPUs by up to half, in spells of tens of
    seconds to minutes that no run can wait out, and the slowdown hits
    all pure-Python work alike.  The worker times a fixed probe before
    every item, so each time is scaled by ``QUIET_PROBE_S`` over the
    median probe time around the item: the item's time at the machine's
    quiet speed, which on a quiet machine is its wall time.
    """
    rows = []
    for p in passes:
        probe, latency = p["probe"], p["latency"]
        if not scaled:
            rows.append(latency)
            continue
        rows.append(
            [
                t * QUIET_PROBE_S
                / statistics.median(probe[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
                for i, t in enumerate(latency)
            ]
        )
    return [statistics.median(times) for times in zip(*rows)]


def timing(latency) -> tuple:
    """(items per second, p50 ms, p90 ms) of one pass's item times."""
    return (
        len(latency) / sum(latency),
        percentile(latency, 0.5) * 1000.0,
        percentile(latency, 0.9) * 1000.0,
    )


def end_to_end(passes, decided: int, setup_s: float, rss_mb: float) -> dict:
    rate, p50, p90 = timing(item_latency(passes))
    return {
        "items_per_s": {"value": rate, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "latency_p90_ms": {"value": p90, "unit": "ms"},
        "decided_share": {"value": decided / len(passes[0]["latency"]), "unit": "share"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


LAYER_UNITS = {"_ms": "ms", "_ratio": "ratio", "_yield": "ratio"}


def per_layer(result) -> dict:
    """Median over the traced passes; times scaled to quiet speed per pass."""
    traced = result["traced"]
    metrics = {}
    for name in traced[0]["layers"]:
        unit = next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")
        values = []
        for p in traced:
            scale = QUIET_PROBE_S / statistics.median(p["probe"]) if unit == "ms" else 1.0
            values.append(p["layers"][name] * scale)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    metrics["trace.overhead_ratio"] = {
        "value": sum(item_latency(traced)) / sum(item_latency(result["untraced"])),
        "unit": "ratio",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crpqbound" / "cli.py").is_file():
        print(f"error: no crpqbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    modules = load_modules()

    items = generate(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    write_inputs(work, items)
    setup_s, setup_codes = (None, set())
    if not args.trace:
        setup_s, setup_codes = measure_setup(work, items[0].argv)
    result = run_worker(work, items, args.seconds, bool(args.trace))

    passes = result["untraced"] + result.get("traced", [])
    first = passes[0]["outputs"]
    checker = Checker(modules)
    failures = {}
    for index, (item, line) in enumerate(zip(items, first)):
        reason = checker.failure(item, line)
        if reason:
            failures[index] = reason
    failed = len(failures) * len(passes)
    # every pass must give the same answers as the first
    unstable = sum(
        1 for p in passes[1:] for i, line in enumerate(p["outputs"]) if line != first[i]
    )
    failed += unstable
    codes = [parse_output(line)[0] if parse_output(line) else None for line in first]
    if setup_codes and setup_codes != {codes[0]}:
        failed += 1
        failures["setup"] = f"fresh interpreter exit codes {sorted(setup_codes)}, loop gave {codes[0]}"
    decided = sum(1 for c in codes if c in (0, 1))

    for index, reason in sorted(failures.items(), key=str):
        label = index if index == "setup" else f"{index} {items[index].template} {' '.join(items[index].argv)}"
        print(f"FAILED {label}: {reason}")
    if unstable:
        print(f"FAILED {unstable} item runs answered differently from the first pass")
    print(
        f"{args.workload} seed {args.seed}: {len(items)} items x {len(passes)} passes, "
        f"{decided} decided, {len(failures)} wrong, {checker.replayed} witnesses replayed, "
        f"{checker.replay_skipped} too large to replay"
    )
    print(compare_digest(args.workload, args.seed, first))
    (work / "answers.json").write_text(
        json.dumps({"digest": digest(first), "items": item_marks(first)}), encoding="utf-8"
    )
    untraced = result["untraced"]
    rate, p50, p90 = timing(item_latency(untraced, scaled=False))
    slowdown = statistics.median(x for p in untraced for x in p["probe"]) / QUIET_PROBE_S
    print(
        f"unscaled: {rate:.3f} items/s, p50 {p50:.3f} ms, p90 {p90:.3f} ms; "
        f"the machine ran {slowdown:.2f}x slower than quiet"
    )

    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result["untraced"], decided, setup_s, result["peak_rss_mb"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(items) * len(passes),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
