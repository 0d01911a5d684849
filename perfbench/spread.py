"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/spread.py --seeds 1-10 [--workloads small-queries,...] [--record]

For each workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, to be
compared with the metric's bound in BENCHMARK.json.  ``--record`` writes
the medians, the spreads, the environment and every run's answer digest
to ``perfbench/baseline.json``; run it on the commit the baseline is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    answers = ROOT / ".bench_work" / f"{workload}-{seed}-0" / "answers.json"
    return {"result": json.loads(lines[-1]), "answers": json.loads(answers.read_text())}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, digests = {}, {}
    ok = True
    for workload in args.workloads.split(","):
        runs = {}
        for seed in parse_seeds(args.seeds):
            print(f"{workload} seed {seed}", flush=True)
            runs[seed] = run_once(workload, seed, bench["run_seconds"])
            if not runs[seed]["result"]["correct"]:
                ok = False
        digests[workload] = {str(s): r["answers"] for s, r in runs.items()}
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs.values()]
            median, width = statistics.median(values), spread(values)
            summary[workload][name] = {"median": median, "spread": width}
            flag = "" if width <= bound / 3 else "  (over a third of the bound)"
            print(f"{workload:16s} {name:16s} median {median:12.4f} spread {width:.3f} bound {bound}{flag}")

    if args.record:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        baseline["environment"] = {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "commit": commit(),
            "run_seconds": bench["run_seconds"],
            "seeds": args.seeds,
        }
        baseline.setdefault("medians", {}).update(summary)
        baseline.setdefault("digests", {}).update(digests)
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
