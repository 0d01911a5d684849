#!/usr/bin/env python3
"""Benchmark pairs: perfbench on two commits, each run on a fresh checkout.

    python3 scripts/bench.py PARENT CHANGE --pairs 10 --first-seed 0 \\
        --claim succinct-checks:items_per_s --confirm-seed 10 \\
        --note "what the change does" --out BENCH_<pr>.json
    python3 scripts/bench.py --rederive BENCH_8.json

Pair i runs both commits on seed ``first_seed + i``, the parent first in
even pairs and the change first in odd ones, for every workload named
(all of ``BENCHMARK.json``'s by default) at its run length.  Each run
gets its own checkout of the commit's committed files (``git archive``)
in a temporary directory, removed after the run.  The file written keeps
``BENCH_8.json``'s layout and is rewritten after every run: per workload
and end-to-end metric, each side's median and inclusive quartiles and
how many pairs the change won and lost (ties count for neither); the
claim, met when the change wins at least nine in ten pairs and the
medians differ, in the better direction, by more than the parent's
interquartile range; and every run with the lines perfbench printed.
With ``--confirm-seed S`` the claimed workload then runs as many pairs
again on seeds S, S+1, ..., which should be seeds not used while the
change was written; they are kept under ``confirmation`` (``note``,
``claim``, ``summary``, ``runs``) in the same file and layout.
``--rederive`` recomputes a file's summary and claim from its runs, and
those of its ``confirmation``, and exits 1 where they differ from what
the file stores.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_RULE = "change wins at least 9 of 10 pairs and the median gain exceeds the parent's IQR"


def _end_to_end() -> list:
    """The benchmark's end-to-end metrics as BENCHMARK.json declares them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _metrics() -> dict:
    """Each end-to-end metric of the benchmark: whether higher or lower is better."""
    return {m["name"]: m["better"] for m in _end_to_end()}


def _quartiles(values) -> list:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs, metrics: dict) -> dict:
    """Per workload and metric, over the pairs where both sides gave a value."""
    sides = {}
    for run in runs:
        values = (run.get("result") or {}).get("metrics", {})
        key = (run["workload"], run["pair"])
        sides.setdefault(run["workload"], {}).setdefault(key, {})[run["side"]] = values
    summary = {}
    for workload, pairs in sides.items():
        summary[workload] = {}
        for name, better in metrics.items():
            both = [
                (p["parent"][name]["value"], p["change"][name]["value"])
                for p in pairs.values()
                if name in p.get("parent", {}) and name in p.get("change", {})
            ]
            if len(both) < 2:
                continue
            parent, change = [b[0] for b in both], [b[1] for b in both]
            sign = 1 if better == "higher" else -1
            pq, cq = _quartiles(parent), _quartiles(change)
            summary[workload][name] = {
                "better": better,
                "pairs": len(both),
                "change_wins": sum(1 for p, c in both if sign * (c - p) > 0),
                "change_losses": sum(1 for p, c in both if sign * (c - p) < 0),
                "parent_q1_median_q3": [round(x, 4) for x in pq],
                "change_q1_median_q3": [round(x, 4) for x in cq],
                "median_ratio": round(cq[1] / pq[1], 4) if pq[1] else None,
                "parent_iqr": round(pq[2] - pq[0], 4),
                "median_gap": round(abs(cq[1] - pq[1]), 4),
            }
        summary[workload]["failed_items"] = {
            side: sum((run.get("result") or {}).get("failed", 0)
                      for run in runs if run["workload"] == workload and run["side"] == side)
            for side in ("parent", "change")
        }
    return summary


def claim_met(summary: dict, workload: str, metric: str) -> bool:
    """Nine in ten pairs won, and the medians apart, the right way, by more than the parent's IQR."""
    s = summary.get(workload, {}).get(metric)
    if s is None:
        return False
    parent, change = s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1]
    gain = change - parent if s["better"] == "higher" else parent - change
    return s["change_wins"] >= math.ceil(0.9 * s["pairs"]) and gain > s["parent_iqr"]


def past_bound(s: dict, bound: float) -> bool:
    """The no-regression rule: the change's median worse than the parent's by
    more than the metric's bound, a share of the parent's median."""
    parent, change = s["parent_q1_median_q3"][1], s["change_q1_median_q3"][1]
    worse = parent - change if s["better"] == "higher" else change - parent
    return worse > bound * abs(parent)


def _differences(data: dict) -> int:
    """Print where a stored summary or claim differs from its runs; count them."""
    metrics = {
        name: entry["better"]
        for workload in data["summary"].values()
        for name, entry in workload.items()
        if name != "failed_items"
    }
    summary = summarize(data["runs"], metrics)
    bad = 0
    for workload, entries in data["summary"].items():
        for name, stored in entries.items():
            got = summary.get(workload, {}).get(name)
            if got != stored:
                bad += 1
                print(f"{workload} {name}: stored {stored}, runs give {got}")
    claim = data.get("claim")
    if claim and claim_met(summary, claim["workload"], claim["metric"]) != claim["met"]:
        bad += 1
        print(f"claim on {claim['workload']} {claim['metric']}: stored met={claim['met']}")
    return bad


def rederive(path: Path) -> int:
    """Check a stored file, and its confirmation pairs if it holds any."""
    data = json.loads(path.read_text(encoding="utf-8"))
    bad = _differences(data) + _differences(data.get("confirmation") or {"summary": {}, "runs": []})
    print(f"{path.name}: {'summary and claim match its runs' if not bad else f'{bad} differences'}")
    return 1 if bad else 0


def _git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def _checkout(commit: str, where: Path) -> None:
    archive = _git("archive", "--format=tar", commit)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # extraction filters came with 3.10.12 and 3.11.4; a git archive of
        # this repository holds only plain files and directories
        if hasattr(tarfile, "data_filter"):
            tar.extractall(where, filter="data")
        else:
            tar.extractall(where)


def run_side(commit: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run on a fresh checkout: exit code, printed lines and result."""
    with tempfile.TemporaryDirectory(prefix=f"bench-{commit}-") as where:
        _checkout(commit, Path(where))
        argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(
            [sys.executable, *argv], cwd=where, capture_output=True, text=True, timeout=600
        )
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    if proc.returncode != 0:
        lines += proc.stderr.strip().splitlines()[-5:]
    return {"returncode": proc.returncode, "notes": lines, "result": result}


def _environment() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)), "cpu": cpu}


def print_summary(summary: dict) -> None:
    """One line per workload and metric; a line ends in PAST BOUND where the
    change breaks the no-regression rule on that metric."""
    bounds = {m["name"]: m["bound"] for m in _end_to_end()}
    for workload, entries in summary.items():
        for name, s in entries.items():
            if name == "failed_items":
                print(f"{workload:16s} failed items: parent {s['parent']}, change {s['change']}")
                continue
            p, c = s["parent_q1_median_q3"], s["change_q1_median_q3"]
            print(
                f"{workload:16s} {name:15s} parent {p[1]:.4g} [{p[0]:.4g}, {p[2]:.4g}]  "
                f"change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}]  ratio {s['median_ratio']}  "
                f"won {s['change_wins']} lost {s['change_losses']} of {s['pairs']}"
                + (f"  PAST BOUND {bounds[name]:g}"
                   if name in bounds and past_bound(s, bounds[name]) else "")
            )


def run_pairs(block: dict, commits: dict, workloads, pairs: int, first_seed: int,
              seconds: float, save) -> None:
    """Run the pairs into block's runs; after every run, update its summary
    and claim and call save()."""
    metrics, claim = _metrics(), block["claim"]
    for workload in workloads:
        for pair in range(pairs):
            seed = first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_side(commits[side], workload, seed, seconds)
                block["runs"].append({
                    "workload": workload, "pair": pair, "seed": seed, "side": side,
                    "first": order[0], **run,
                })
                print(f"{workload} pair {pair} seed {seed} {side}: exit {run['returncode']}, "
                      + "; ".join(run["notes"][-2:]), flush=True)
                block["summary"] = summarize(block["runs"], metrics)
                if claim:
                    claim["met"] = claim_met(block["summary"], claim["workload"], claim["metric"])
                save()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="the parent commit")
    parser.add_argument("change", nargs="?", help="the change's commit")
    parser.add_argument("--workload", action="append", help="a workload (repeatable; default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--confirm-seed", type=int,
                        help="first seed of the claimed workload's confirmation pairs")
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--out", type=Path, help="the BENCH_<pr>.json to write")
    parser.add_argument("--rederive", type=Path, help="recompute a stored file's summary")
    args = parser.parse_args(argv)
    if args.rederive:
        return rederive(args.rederive)
    if not (args.parent and args.change and args.out):
        parser.error("PARENT, CHANGE and --out are needed unless --rederive is given")
    if args.confirm_seed is not None and not args.claim:
        parser.error("--confirm-seed needs --claim")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    commits = {side: _git("rev-parse", "--short", rev).decode().strip()
               for side, rev in (("parent", args.parent), ("change", args.change))}
    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"metric": metric, "workload": workload, "rule": CLAIM_RULE, "met": False}
    data = {
        "change": args.note,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "environment": _environment(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "method": (
            f"{args.pairs} pairs per workload, each pair one parent run and one change run on "
            f"the same seed, each side in a fresh checkout of its committed files; the side "
            f"that runs first alternates (parent first in even pairs). Pair i uses seed "
            f"i + {args.first_seed}. Quartiles are inclusive; ties count for neither side."
        ),
        "claim": claim,
        "summary": {},
        "runs": [],
    }

    def save():
        args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")

    run_pairs(data, commits, workloads, args.pairs, args.first_seed, seconds, save)
    blocks = [data]
    if args.confirm_seed is not None:
        last = args.confirm_seed + args.pairs - 1
        data["confirmation"] = {
            "note": (
                f"{args.pairs} more {claim['workload']} pairs on seeds "
                f"{args.confirm_seed}-{last}, not used while the change was written, "
                f"run the same way."
            ),
            "claim": {**claim, "met": False},
            "summary": {},
            "runs": [],
        }
        run_pairs(data["confirmation"], commits, [claim["workload"]], args.pairs,
                  args.confirm_seed, seconds, save)
        blocks.append(data["confirmation"])
    for block in blocks:
        print_summary(block["summary"])
        if block["claim"]:
            c = block["claim"]
            print(f"claim {c['workload']} {c['metric']}: {'met' if c['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
