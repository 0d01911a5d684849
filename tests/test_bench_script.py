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


def test_a_file_with_confirmation_pairs_rederives(tmp_path, monkeypatch, capsys):
    def run_side(commit, workload, seed, seconds):
        # the change a little faster, more so on odd seeds
        scale = 1.0 if commit == "parent" else 0.8 - 0.01 * (seed % 2)
        metrics = {
            m["name"]: {"value": (10 + seed) * (scale if m["better"] == "lower" else 1 / scale),
                        "unit": m["unit"]}
            for m in bench._end_to_end()
        }
        return {"returncode": 0, "notes": [f"{workload} seed {seed}"],
                "result": {"failed": 0, "metrics": metrics}}

    monkeypatch.setattr(bench, "run_side", run_side)
    monkeypatch.setattr(bench, "_git", lambda *args: args[-1].encode())
    out = tmp_path / "BENCH_x.json"
    argv = ["parent", "change", "--workload", "deep-words", "--workload", "succinct-checks",
            "--pairs", "3", "--claim", "succinct-checks:latency_p50_ms", "--confirm-seed", "10",
            "--out", str(out)]
    assert bench.main(argv) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    confirmation = data["confirmation"]
    assert set(confirmation) == {"note", "claim", "summary", "runs"}
    assert sorted({run["seed"] for run in confirmation["runs"]}) == [10, 11, 12]
    assert {run["workload"] for run in confirmation["runs"]} == {"succinct-checks"}
    assert confirmation["claim"]["met"] and data["claim"]["met"]
    assert bench.rederive(out) == 0
    # a changed confirmation run is caught
    confirmation["runs"][1]["result"]["metrics"]["latency_p50_ms"]["value"] *= 2
    out.write_text(json.dumps(data), encoding="utf-8")
    assert bench.rederive(out) == 1
