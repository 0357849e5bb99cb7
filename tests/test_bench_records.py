"""Every committed ``BENCH_<n>.json`` benchmark record holds what a later change compares against.

A record pairs a parent commit with a change on the workloads that ``BENCHMARK.json``
declares: per workload, the pair count and the parent and change medians and quartiles
of each end-to-end metric, plus the provenance that says where they were measured.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
STATS = [f"{side}_{stat}" for side in ("parent", "change") for stat in ("median", "q1", "q3")]


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_schema(path):
    record = json.loads(path.read_text())
    assert isinstance(record["benchmark"], str) and isinstance(record["method"], str)
    provenance = record["provenance"]
    for key in ("parent_commit", "change_commit", "python", "numpy", "nproc"):
        assert provenance[key], key

    workload, metric = record["claim"].split()
    assert workload in WORKLOADS
    assert metric in METRICS

    assert record["workloads"]
    for name, entry in record["workloads"].items():
        assert name.split(" (")[0] in WORKLOADS, name
        assert isinstance(entry["pairs"], int) and entry["pairs"] >= 1, name
        for metric in METRICS:
            values = entry["metrics"][metric]
            for stat in STATS:
                assert isinstance(values[stat], (int, float)), (name, metric, stat)
            assert values["parent_q1"] <= values["parent_median"] <= values["parent_q3"]
            assert values["change_q1"] <= values["change_median"] <= values["change_q3"]
