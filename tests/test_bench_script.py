"""scripts/bench.py: the summary and claim it derives from stored pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_stored_summary_is_rederived_from_its_runs(path):
    assert bench.rederive(path) == 0


def test_a_changed_run_or_claim_is_reported(tmp_path):
    data = json.loads((ROOT / "BENCH_8.json").read_text(encoding="utf-8"))
    data["runs"][0]["result"]["metrics"]["latency_p50_ms"]["value"] *= 2
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert bench.rederive(path) == 1
    data = json.loads((ROOT / "BENCH_8.json").read_text(encoding="utf-8"))
    data["claim"]["met"] = False
    path.write_text(json.dumps(data), encoding="utf-8")
    assert bench.rederive(path) == 1


@pytest.mark.parametrize("factor, marked", [(1.0, []), (1.3, []), (1.5, ["latency_p90_ms"])])
def test_summary_marks_a_median_past_its_bound(factor, marked, capsys):
    # deep-words p90: parent median 0.7487 ms, change 0.6717 ms, bound 0.24
    data = json.loads((ROOT / "BENCH_27.json").read_text(encoding="utf-8"))
    for run in data["runs"]:
        if run["workload"] == "deep-words" and run["side"] == "change":
            run["result"]["metrics"]["latency_p90_ms"]["value"] *= factor
    bench.print_summary(bench.summarize(data["runs"], bench._metrics()))
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [words[1] for words in lines if "PAST" in words] == marked
    assert all(words[0] == "deep-words" for words in lines if "PAST" in words)
