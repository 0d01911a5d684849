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
