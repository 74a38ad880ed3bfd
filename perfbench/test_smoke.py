"""Smoke test of the benchmark itself: every workload once at a tiny size.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import sys

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))
os.environ.update(run.BLAS_ENV)


def test_benchmark_json_matches_definitions():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_at_tiny_size(name, trace):
    result, record = run.run_workload(run.WORKLOADS[name].tiny(), seed=3, seconds=0, trace=trace)
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in table]
    for (_, unit, *_), metric in zip(table, result["metrics"].values()):
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert metrics["metrics.accumulate_stats.calls"] >= 1
        assert metrics["metrics.learner.calls"] == metrics["metrics.accumulate_stats.calls"]
        assert metrics["cascade.cascade_distance.calls"] == run.WORKLOADS[name].tiny().heldout_pairs
        assert 0.0 < metrics["eval.heldout_eer"] < 0.5
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
