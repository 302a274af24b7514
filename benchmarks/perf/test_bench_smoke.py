"""Smoke test of the benchmark driver (outside the tier-1 ``testpaths``).

``PYTHONPATH=src python -m pytest benchmarks/perf/test_bench_smoke.py -q``
makes one ``--quick`` pass (one round, shortest durations) over every
workload, untraced and traced, and checks the result schema against the
``BENCHMARK.json`` contract.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from benchmarks.perf.__main__ import run_suite, verdict
from benchmarks.perf.run import check_rounds, contract_line, load_benchmark, metric_units

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def benchmark_doc():
    return load_benchmark()


@pytest.fixture(scope="module")
def suite():
    return run_suite(seed=1, seconds=0.01, quick=True, only=[])


def test_benchmark_json_meets_the_contract(benchmark_doc):
    doc = benchmark_doc
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in doc["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in doc["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert UNIT.match(row["unit"]) and row["better"] in ("lower", "higher")
        assert 0 < row["bound"] <= 0.25
    for row in doc["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
        assert UNIT.match(row["unit"]) and row["better"] in ("lower", "higher")
    setup = next(row for row in doc["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_every_workload_reports_every_declared_metric(benchmark_doc, suite):
    assert list(suite["workloads"]) == [row["name"] for row in benchmark_doc["workloads"]]
    for name, pair in suite["workloads"].items():
        for mode, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
            report = pair[mode]
            declared = [row["name"] for row in benchmark_doc[key]]
            assert sorted(report["metrics"]) == sorted(declared), (name, mode)
            assert report["missing_boundaries"] == [], name
            assert report["failed"] == 0 and report["attempted"] >= 1, report["failures"]
            line = json.loads(contract_line(report, metric_units(benchmark_doc, mode == "traced")))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True
            for entry in line["metrics"].values():
                assert isinstance(entry["value"], (int, float)) and UNIT.match(entry["unit"])
        for metric, value in pair["untraced"]["metrics"].items():
            assert value > 0, (name, metric)  # end-to-end metrics are never 0


def test_tracing_leaves_each_digest_unchanged(suite):
    for name, pair in suite["workloads"].items():
        assert pair["traced"]["sha256"] == pair["untraced"]["sha256"], name


def test_manifest(suite):
    manifest = suite["manifest"]
    assert {"git_sha", "seed", "env", "checks_failed"} <= set(manifest)
    assert {"python", "numpy", "nproc"} <= set(manifest["env"])
    assert manifest["start_method"].startswith("fleet/pool/")
    for pair in suite["workloads"].values():
        assert len(pair["untraced"]["round_walls_s"]) == pair["untraced"]["rounds"]


def test_a_corrupted_round_is_counted_as_failed():
    telemetry = b"tenant,bw\nycsb,1.0\n"
    flipped = bytes([telemetry[0] ^ 1]) + telemetry[1:]

    def record(data):
        return {"ok": True, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    clean = check_rounds([record(telemetry)] * 3, {}, None)
    corrupt = check_rounds([record(telemetry), record(flipped), record(telemetry)], {}, None)
    assert not [c for c in clean if c.startswith("FAILED")]
    assert len(corrupt) == len(clean)
    assert [c for c in corrupt if c.startswith("FAILED")] == [
        "FAILED round 1 telemetry non-empty and identical to round 0"
    ]


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(steady, [v * 1.05 for v in steady], "lower", 0.10)["verdict"] == "within"
    assert verdict(steady, [v * 1.20 for v in steady], "lower", 0.10)["verdict"] == "worse"
    assert verdict(steady, [v * 1.20 for v in steady], "higher", 0.10)["verdict"] == "within"
    noisy = [0.8, 1.0, 1.2, 0.9, 1.3]
    assert verdict(noisy, noisy, "lower", 0.10)["verdict"] == "unresolved"
