"""The committed benchmark records (``BENCH_*.json``) agree with
``BENCHMARK.json`` and back the gain each one claims."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
METRICS = set(END_TO_END) | {m["name"] for m in BENCHMARK["per_layer"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# what a side of a workload reports besides its metrics
OUTCOME = {"correct", "failed", "attempted"}


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_benchmark_metrics_and_correct_runs(path):
    record = json.loads(path.read_text())
    workloads = record["workloads"]
    assert workloads
    assert set(workloads) <= {w["name"] for w in BENCHMARK["workloads"]}
    for name, workload in workloads.items():
        for side in ("parent", "change"):
            doc = workload[side]
            assert set(doc) - OUTCOME <= METRICS, (name, side)
            assert doc["correct"] is True and doc["failed"] == 0, (name, side)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_claimed_metric_beats_the_parent_median(path):
    record = json.loads(path.read_text())
    claim = record.get("claim")
    if claim is None:
        return
    # one end-to-end metric on one workload of the record
    assert claim["metric"] in END_TO_END
    assert claim["workload"] in record["workloads"]
    metric = END_TO_END[claim["metric"]]
    workload = record["workloads"][claim["workload"]]
    parent = workload["parent"][metric["name"]]["median"]
    change = workload["change"][metric["name"]]["median"]
    if metric["better"] == "lower":
        assert change < parent
    else:
        assert change > parent
