"""Smoke test of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

Runs one small item per workload through the real child processes and checks
the result schema against BENCHMARK.json, and that a wrong reference digest
or a failing command is counted as a failed item instead of crashing the run.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = {
    "verify-sweep": "l-default I1 -4..2",
    "export-artifacts": "l-default I1",
    "ortho-grid": "l-default I1",
}


def _small_item(workload: str) -> dict:
    (item,) = [it for it in workloads.items(workload, seed=0) if it["id"] == SMALL[workload]]
    return item


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def test_benchmark_file_names_every_metric():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert _units(BENCH["end_to_end"]) == run.END_TO_END
    assert _units(BENCH["per_layer"]) == {n: run.layer_unit(n) for n in run.tracer.metric_names()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_item_schema(workload):
    result = run.measure(workload, seed=3, seconds=0.1, trace=False, items=[_small_item(workload)])
    line = run.result_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == _units(BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert result["record"]["seed"] == 3
    assert "  verdict: EXACT" in run.report(result)


def test_traced_item_reports_every_layer_metric():
    result = run.measure("export-artifacts", seed=0, seconds=0.1, trace=True,
                         items=[_small_item("export-artifacts")])
    line = run.result_line(result)
    assert {n: m["unit"] for n, m in line["metrics"].items()} == _units(BENCH["per_layer"])
    layers = result["layers"]
    assert layers["multiindex.build.calls"] == layers["multiindex.build.unique"] == 1
    assert layers["cli.main.s"] > 0 and layers["cli.bytes_out"] > 0
    assert layers["trace.coverage"] >= run.MIN_COVERAGE


def test_corrupt_digest_and_bad_command_count_as_failures():
    reference = json.loads((HERE / "reference.json").read_text())
    item = _small_item("export-artifacts")
    reference["export-artifacts"][item["id"]]["gen_sha256"] = "0" * 64
    broken = {"id": "broken", "kind": "export",
              "argvs": [["gen", "--preset", "l-default", "--N", "not-a-number"]]}
    result = run.measure("export-artifacts", seed=0, seconds=0.1, trace=False,
                         items=[item, broken], reference=reference)
    line = run.result_line(result)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == 2 * result["passes"]
    assert line["metrics"]["ok_frac"]["value"] == 0.0
    reasons = {f["id"]: f["error"] for f in result["failures"]}
    assert "gen content_sha256" in reasons[item["id"]]
    assert "exited 2" in reasons["broken"]
