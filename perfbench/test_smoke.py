"""Smoke test of the benchmark harness at its smallest sizes.

Checks the shape of the result and the metric names and units, never the
timings. From the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_result_shape(workload, trace):
    result, keep = run.measure(ROOT, workload, seed=1, seconds=0.01, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, keep["errors"]
    assert result["attempted"] >= (2 if trace else 1)
    assert 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert json.loads(json.dumps(result)) == result
    if trace:
        assert keep["spans"], "a traced run records spans"


def test_stage_map_covers_every_span_and_metric():
    with open(os.path.join(HERE, "stages.json")) as fh:
        spans = json.load(fh)["spans"]
    recorded = {name for _, _, name in tracing.SPANS} | {"cli.import", "cli.main", "op"}
    assert recorded == set(spans)
    mapped = {m for s in spans.values() for m in s["metrics"]}
    assert {m["name"] for m in BENCH["per_layer"]} == mapped


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
