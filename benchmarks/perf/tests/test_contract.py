"""BENCHMARK.json, spec.py and what a run prints must name the same things."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf.spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_spec():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CONTRACT["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert CONTRACT["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]
    assert "setup_s" in [m.name for m in END_TO_END]
    assert all(len(w.why) <= 200 for w in WORKLOADS.values())


def _smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = _smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: row["unit"] for name, row in result["metrics"].items()
    } == {m.name: m.unit for m in END_TO_END}
    assert all(row["value"] > 0 for row in result["metrics"].values())


@pytest.mark.parametrize("workload", ["offline_batch", "cluster_mixed"])
def test_smoke_trace_emits_every_per_layer_metric(workload):
    result = _smoke(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert {
        name: row["unit"] for name, row in result["metrics"].items()
    } == {m.name: m.unit for m in PER_LAYER}
    assert result["metrics"]["harness.probe_errors"]["value"] == 0
    assert result["metrics"]["service.rejected_batches"]["value"] == 0
    spans = ROOT / "benchmarks/perf/results" / f"trace-{workload}.jsonl"
    assert {"name", "group", "parent", "op", "start_ns", "end_ns"} <= set(
        json.loads(spans.read_text().splitlines()[0])
    )
