"""The byte-identity gate every refactor relies on, in tier-1.

The canonical cell — ycsb beside terasort under the full FleetIO policy
(RL agents, gSB harvesting and GC all live), seed 0, 8 simulated
seconds — must reproduce its telemetry (results CSV + window CSV) byte
for byte.  ``benchmarks/perf/expectations.json`` pins the same digest
for the ``cell_fleetio_mixed`` workload; this test puts it in
``pytest -x -q``.  When a change moves the digest on purpose (a sampler
or policy-artifact change), update both places in the same commit and
say why.

None of the pinned workloads runs a lazy gSB reclaim, so a second cell
holds that path to bytes too: vdi-web beside batchanalytics under the
adaptive policy, seed 0, harvests three times, reclaims one in-use gSB
lazily and returns 288 blocks home (12 drained free, 276 collected).

A third cell holds the monitor faults to bytes: the canonical pair under
FleetIO with guardrails on, the first half of the channels slowed 6x
from 3 s to 7 s and ycsb's agent fed NaN windows from 4 s to 6 s.  Its
digest covers the results CSV and the fault/guardrail event CSV.
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

REFERENCE_DIGEST_PREFIX = "3636a8ff"
RECLAIM_DIGEST_PREFIX = "dbb8130b"
FAULTED_DIGEST_PREFIX = "cb3d1322"

_SCRIPT = """
import hashlib, json, shutil, sys
from repro.harness.pretrained import pretrained_cache_path
from repro.parallel import ExperimentCell, run_cell

shutil.copyfile(sys.argv[1], pretrained_cache_path())
cell = ExperimentCell(
    "ycsb+terasort", ("ycsb", "terasort"), "fleetio", 0,
    duration_s=8.0, measure_after_s=2.0,
)
report = {}
for profile in (False, True):
    outcome = run_cell(cell, profile=profile)
    assert outcome.ok, outcome.error
    report["profiled" if profile else "bare"] = hashlib.sha256(outcome.telemetry).hexdigest()
report["batched_decisions"] = outcome.profile["counters"].get("rl.batched_decisions", 0)
print(json.dumps(report))
"""

_RECLAIM_SCRIPT = """
import hashlib, json
from repro.parallel import ExperimentCell, run_cell

cell = ExperimentCell(
    "vdi-web+batchanalytics", ("vdi-web", "batchanalytics"), "adaptive", 0,
    duration_s=8.0, measure_after_s=2.0,
)
outcome = run_cell(cell)
assert outcome.ok, outcome.error
print(json.dumps({"bare": hashlib.sha256(outcome.telemetry).hexdigest()}))
"""

_FAULTED_SCRIPT = """
import hashlib, json, shutil, sys
from pathlib import Path
from repro.faults import slowdown_corruption_scenario
from repro.harness import Experiment, events_to_csv, plans_for_pair
from repro.harness.pretrained import pretrained_cache_path
from repro.harness.report import results_csv_bytes

shutil.copyfile(sys.argv[1], pretrained_cache_path())
experiment = Experiment(
    plans_for_pair("ycsb", "terasort"), "fleetio", seed=0,
    faults=slowdown_corruption_scenario(
        "ycsb", list(range(8)), slowdown_factor=6.0,
        fault_start_s=3.0, fault_duration_s=4.0,
        corruption_start_s=4.0, corruption_duration_s=2.0,
    ),
    guardrails=True,
)
result = experiment.run(8.0, 2.0)
experiment.close()
events = Path(sys.argv[2])
events_to_csv(result.fault_events + result.guardrail_events, events)
blob = results_csv_bytes({"fleetio": result}) + events.read_bytes()
print(json.dumps({"bare": hashlib.sha256(blob).hexdigest()}))
"""


def _run_child(tmp_path, script, *args):
    # A child with a private cache directory: the digest must not depend
    # on whatever policy artifact this host's ~/.cache/repro holds, nor
    # on snapshot-cache state earlier tests left in this process.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_canonical_cell_telemetry_digest(tmp_path):
    report = _run_child(tmp_path, _SCRIPT, str(POLICY_FIXTURE))
    assert report["bare"].startswith(REFERENCE_DIGEST_PREFIX), (
        f"telemetry digest {report['bare']} != reference "
        f"{REFERENCE_DIGEST_PREFIX}…: a change altered simulation behaviour"
    )
    # Profiling observes; it must not perturb the simulated statistics.
    assert report["profiled"] == report["bare"]
    # The agents' decisions went through the batched inference path —
    # otherwise the cell no longer exercises what the digest guards.
    assert report["batched_decisions"] > 0


def test_reclaim_cell_telemetry_digest(tmp_path):
    report = _run_child(tmp_path, _RECLAIM_SCRIPT)
    assert report["bare"].startswith(RECLAIM_DIGEST_PREFIX), (
        f"telemetry digest {report['bare']} != reference "
        f"{RECLAIM_DIGEST_PREFIX}…: a change altered harvest/reclaim behaviour"
    )


def test_faulted_fleetio_cell_digest(tmp_path):
    report = _run_child(
        tmp_path, _FAULTED_SCRIPT, str(POLICY_FIXTURE), str(tmp_path / "events.csv")
    )
    assert report["bare"].startswith(FAULTED_DIGEST_PREFIX), (
        f"results+events digest {report['bare']} != reference "
        f"{FAULTED_DIGEST_PREFIX}…: a change altered fault or guardrail behaviour"
    )
