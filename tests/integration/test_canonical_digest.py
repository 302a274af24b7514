"""The byte-identity gate every refactor relies on, in tier-1.

``tests/integration/digests.json`` maps (cell, seed) to the sha256 of
the cell's telemetry (results CSV + window CSV).  The cells mirror the
digest-pinned workloads of ``benchmarks/perf/workloads.py`` at the same
sizes, where benchmark seed ``s`` is cell seed ``s`` and fleet base seed
``42 + s``:

* ``cell_fleetio_mixed`` — ycsb beside terasort under the full FleetIO
  policy (RL agents, gSB harvesting and GC all live), 8 simulated s;
* ``cell_hardware_read`` — vdi-web beside ycsb, hardware isolation, 10 s;
* ``cell_software_write_gc`` — terasort beside batchanalytics, software
  isolation, 8 s;
* ``fleet_shards`` — 12 adaptive ycsb+terasort devices, 0.8 s each,
  through ``run_fleet_serial`` (the sharded runner is held byte-equal to
  it by ``tests/fleet/``);
* ``reclaim`` — vdi-web beside batchanalytics under the adaptive policy,
  8 s.  None of the benchmarked cells runs a lazy gSB reclaim; at seed 0
  this one harvests three times, reclaims one in-use gSB lazily and
  returns 288 blocks home (12 drained free, 276 collected);
* ``faulted`` (seed 0 only) — the canonical pair under FleetIO with
  guardrails on, the first half of the channels slowed 6x from 3 s to
  7 s and ycsb's agent fed NaN windows from 4 s to 6 s.  Its digest
  covers the results CSV and the fault/guardrail event CSV.

Tier-1 checks every seed-0 entry; ``--digest-matrix`` checks seeds 3 and
7 too (a CI step).  ``benchmarks/perf/expectations.json`` pins the
seed-0 digests of the benchmark workloads separately.  When a change
moves a digest on purpose (a sampler or policy-artifact change), update
the manifest and the expectations in the same commit and say why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
#: The committed canonical policy net (read-only here): training it cold
#: takes minutes, and the digest proves it is the canonical artifact.
POLICY_FIXTURE = REPO / "benchmarks" / "perf" / "fixtures" / "pretrained_canonical.npz"
MANIFEST = json.loads((Path(__file__).with_name("digests.json")).read_text())["sha256"]
SEEDS = sorted({int(seed) for entries in MANIFEST.values() for seed in entries})
#: Seed-0 entries with a test of their own below.
NAMED_TESTS = {("cell_fleetio_mixed", 0), ("reclaim", 0), ("faulted", 0)}

#: argv: policy fixture, events CSV path, then ``name:seed[:profiled]``
#: entries.  Prints ``{entry: {"sha256", "batched_decisions"}}``.
_SCRIPT = """
import hashlib, json, shutil, sys
from pathlib import Path
from repro.harness.pretrained import pretrained_cache_path
from repro.parallel import ExperimentCell, run_cell

CELLS = {
    "cell_fleetio_mixed": (("ycsb", "terasort"), "fleetio", 8.0),
    "cell_hardware_read": (("vdi-web", "ycsb"), "hardware", 10.0),
    "cell_software_write_gc": (("terasort", "batchanalytics"), "software", 8.0),
    "reclaim": (("vdi-web", "batchanalytics"), "adaptive", 8.0),
}

def fleet(seed):
    from repro.fleet import build_fleet, run_fleet_serial
    result = run_fleet_serial(
        build_fleet(12, policy="adaptive", base_seed=42 + seed,
                    duration_s=0.8, measure_after_s=0.2),
        profile=False,
    )
    assert result.ok, [failure.describe() for failure in result.failures]
    return result.telemetry

def faulted(seed):
    from repro.faults import slowdown_corruption_scenario
    from repro.harness import Experiment, events_to_csv, plans_for_pair
    from repro.harness.report import results_csv_bytes
    experiment = Experiment(
        plans_for_pair("ycsb", "terasort"), "fleetio", seed=seed,
        faults=slowdown_corruption_scenario(
            "ycsb", list(range(8)), slowdown_factor=6.0,
            fault_start_s=3.0, fault_duration_s=4.0,
            corruption_start_s=4.0, corruption_duration_s=2.0,
        ),
        guardrails=True,
    )
    try:
        result = experiment.run(8.0, 2.0)
    finally:
        experiment.close()
    events = Path(sys.argv[2])
    events_to_csv(result.fault_events + result.guardrail_events, events)
    return results_csv_bytes({"fleetio": result}) + events.read_bytes()

shutil.copyfile(sys.argv[1], pretrained_cache_path())
report = {}
for entry in sys.argv[3:]:
    name, seed, *mode = entry.split(":")
    seed, batched = int(seed), 0
    if name == "fleet_shards":
        blob = fleet(seed)
    elif name == "faulted":
        blob = faulted(seed)
    else:
        workloads, policy, duration_s = CELLS[name]
        cell = ExperimentCell("+".join(workloads), workloads, policy, seed, duration_s, 2.0)
        outcome = run_cell(cell, profile=mode == ["profiled"])
        assert outcome.ok, outcome.error
        blob = outcome.telemetry
        batched = outcome.profile.get("counters", {}).get("rl.batched_decisions", 0)
    report[entry] = {"sha256": hashlib.sha256(blob).hexdigest(), "batched_decisions": batched}
print(json.dumps(report))
"""


def _run_child(tmp_path, *entries):
    # A child with a private cache directory: the digest must not depend
    # on whatever policy artifact this host's ~/.cache/repro holds, nor
    # on snapshot-cache state earlier tests left in this process.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(POLICY_FIXTURE),
         str(tmp_path / "events.csv"), *entries],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _mismatches(report):
    """``entry -> (got, manifest)`` for digests that differ."""
    out = {}
    for entry, got in report.items():
        name, seed = entry.split(":")[:2]
        if got["sha256"] != MANIFEST[name][seed]:
            out[entry] = (got["sha256"], MANIFEST[name][seed])
    return out


def pytest_generate_tests(metafunc):
    if metafunc.function.__name__ == "test_digest_matrix":
        every = metafunc.config.getoption("--digest-matrix")
        metafunc.parametrize("seed", SEEDS if every else [0])


def test_canonical_cell_telemetry_digest(tmp_path):
    report = _run_child(tmp_path, "cell_fleetio_mixed:0", "cell_fleetio_mixed:0:profiled")
    bare = report["cell_fleetio_mixed:0"]["sha256"]
    assert bare == MANIFEST["cell_fleetio_mixed"]["0"], (
        f"telemetry digest {bare} != manifest: a change altered simulation behaviour"
    )
    # Profiling observes; it must not perturb the simulated statistics.
    profiled = report["cell_fleetio_mixed:0:profiled"]
    assert profiled["sha256"] == bare
    # The agents' decisions went through the batched inference path —
    # otherwise the cell no longer exercises what the digest guards.
    assert profiled["batched_decisions"] > 0


def test_reclaim_cell_telemetry_digest(tmp_path):
    report = _run_child(tmp_path, "reclaim:0")
    assert not _mismatches(report), (
        f"{_mismatches(report)}: a change altered harvest/reclaim behaviour"
    )


def test_faulted_fleetio_cell_digest(tmp_path):
    report = _run_child(tmp_path, "faulted:0")
    assert not _mismatches(report), (
        f"{_mismatches(report)}: a change altered fault or guardrail behaviour"
    )


def test_digest_matrix(tmp_path, seed):
    entries = [
        f"{name}:{seed}"
        for name, digests in MANIFEST.items()
        if str(seed) in digests and (name, seed) not in NAMED_TESTS
    ]
    assert entries
    report = _run_child(tmp_path, *entries)
    assert not _mismatches(report), (
        f"(got, manifest) per entry: {_mismatches(report)}"
    )
