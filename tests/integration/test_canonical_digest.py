"""The byte-identity gate every refactor relies on, in tier-1.

The canonical cell — ycsb beside terasort under the full FleetIO policy
(RL agents, gSB harvesting and GC all live), seed 0, 8 simulated
seconds — must reproduce its telemetry (results CSV + window CSV) byte
for byte.  ``benchmarks/perf/expectations.json`` pins the same digest
for the ``cell_fleetio_mixed`` workload; this test puts it in
``pytest -x -q``.  When a change moves the digest on purpose (a sampler
or policy-artifact change), update both places in the same commit and
say why.
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


def test_canonical_cell_telemetry_digest(tmp_path):
    # A child with a private cache directory: the digest must not depend
    # on whatever policy artifact this host's ~/.cache/repro holds, nor
    # on snapshot-cache state earlier tests left in this process.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(POLICY_FIXTURE)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["bare"].startswith(REFERENCE_DIGEST_PREFIX), (
        f"telemetry digest {report['bare']} != reference "
        f"{REFERENCE_DIGEST_PREFIX}…: a change altered simulation behaviour"
    )
    # Profiling observes; it must not perturb the simulated statistics.
    assert report["profiled"] == report["bare"]
    # The agents' decisions went through the batched inference path —
    # otherwise the cell no longer exercises what the digest guards.
    assert report["batched_decisions"] > 0
