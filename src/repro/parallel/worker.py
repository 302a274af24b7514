"""Cell execution: what runs inside each worker process.

:func:`run_cell` is the single entry point for both the serial and the
parallel paths — a pool worker calls, once per cell it is handed,
exactly the code the serial loop calls, which is what makes the serial-
vs-parallel byte-equality guarantee checkable rather than aspirational.

A cell's outcome carries its telemetry as *bytes* (results CSV + window
CSV) so equality is a trivial comparison, plus a profiler snapshot so
the work counters aggregate across workers.  ``run_cell`` never
raises: a failing experiment becomes ``ok=False`` with a structured
error.  Hard process deaths (signal, ``os._exit``) are the runner's
job to detect.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from repro.analysis.detsan import DetsanRecorder, detsan_enabled
from repro.config import SSDConfig
from repro.harness.experiment import Experiment
from repro.harness.report import results_csv_bytes
from repro.harness.telemetry import windows_csv_bytes
from repro.parallel.matrix import AdversarialCell, ExperimentCell, PretrainCell
from repro.profiling import PROFILER

#: Anything the runner registry can execute: every cell type exposes
#: ``cell_id`` and ``runner``.
WorkCell = Union[ExperimentCell, PretrainCell, AdversarialCell]


@dataclass
class CellOutcome:
    """What one cell sends back to the sweep."""

    cell: WorkCell
    ok: bool
    #: The runner's payload: an ``ExperimentResult`` for experiment
    #: cells, a ``PretrainResult`` for pre-training cells.
    result: Optional[object] = None
    #: Results CSV + per-window telemetry CSV, concatenated.
    telemetry: bytes = b""
    #: Profiler snapshot (:meth:`repro.profiling.Profiler.snapshot`).
    profile: dict = field(default_factory=dict)
    #: ``{"type", "message", "traceback"}`` when ``ok`` is False.
    error: Optional[dict] = None
    wall_s: float = 0.0
    pid: int = 0
    #: Which launch attempt produced this outcome (1 = first try; >1
    #: means the parallel runner retried a crashed/hung worker).
    attempts: int = 1
    #: Serialized detsan trace (``DetsanTrace.to_bytes``) when the cell
    #: ran with the determinism sanitizer enabled.  Kept separate from
    #: ``telemetry`` so instrumented runs stay byte-identical to bare
    #: ones on the digest-gated channel.
    detsan: Optional[bytes] = None


def experiment_for(cell: ExperimentCell) -> Experiment:
    """The (unbuilt) harness experiment an experiment cell describes.

    The one place a cell becomes an :class:`Experiment`: the cell runner
    below and the fleet runner's priming probe both come through here.
    """
    config = (
        SSDConfig(num_channels=cell.num_channels)
        if cell.num_channels is not None
        else SSDConfig()
    )
    return Experiment(cell.plans(), cell.policy, ssd_config=config, seed=cell.seed)


def _run_experiment_cell(cell: ExperimentCell) -> CellOutcome:
    """The default runner: build, run and close one harness experiment.

    Closing in ``finally`` frees the simulator when this returns, even
    when the run raised, so a worker's memory does not grow with the
    cells it has run.
    """
    experiment = experiment_for(cell)
    try:
        # The one place REPRO_DETSAN is consulted: Experiment.run records
        # only when handed a recorder, and the label must be the cell id.
        recorder = DetsanRecorder(label=cell.cell_id) if detsan_enabled() else None
        result = experiment.run(cell.duration_s, cell.measure_after_s, detsan=recorder)
        telemetry = results_csv_bytes({cell.policy: result}) + windows_csv_bytes(
            {name: monitor.window_history for name, monitor in experiment.monitors.items()}
        )
    finally:
        experiment.close()
    return CellOutcome(
        cell=cell,
        ok=True,
        result=result,
        telemetry=telemetry,
        detsan=recorder.trace.to_bytes() if recorder is not None else None,
    )


def _run_pretrain_cell(cell: PretrainCell) -> CellOutcome:
    """Pre-training runner: one seed of the ``pretrain_best`` search.

    The import is deferred: this module is the generic cell executor and
    must not drag the training stack into every worker that only runs
    experiments.  Telemetry is a deterministic JSON fingerprint of the
    run (reward curve + checkpoint selection), so serial and parallel
    seed searches are byte-comparable just like experiment sweeps.
    """
    from repro.core.pretrain import pretrain

    result = pretrain(
        iterations=cell.iterations, seed=cell.seed, **dict(cell.options)
    )
    fingerprint = {
        "cell": cell.cell_id,
        "mean_rewards": result.mean_rewards,
        "best_reward": result.best_reward,
        "best_iteration": result.best_iteration,
    }
    telemetry = (json.dumps(fingerprint, sort_keys=True) + "\n").encode("utf-8")
    return CellOutcome(cell=cell, ok=True, result=result, telemetry=telemetry)


def _run_adversarial_cell(cell: AdversarialCell) -> CellOutcome:
    """Adversarial runner: score one scenario genome by regret.

    Deferred import for the same reason as pre-training: experiment-only
    workers must not load the training stack.  Telemetry is one
    deterministic JSON line of the regret metrics, so serial and
    parallel searches are byte-comparable.
    """
    from repro.adversarial.search import evaluate_cell

    metrics = evaluate_cell(cell)
    fingerprint = {"cell": cell.cell_id}
    fingerprint.update(metrics)
    telemetry = (json.dumps(fingerprint, sort_keys=True) + "\n").encode("utf-8")
    return CellOutcome(cell=cell, ok=True, result=metrics, telemetry=telemetry)


def _crash_cell(cell: WorkCell) -> CellOutcome:  # pragma: no cover
    """Test-only runner: die without reporting (simulates a hard crash)."""
    os._exit(13)


def _hang_cell(cell: WorkCell) -> CellOutcome:  # pragma: no cover
    """Test-only runner: never report (simulates a wedged worker)."""
    time.sleep(3600.0)
    raise AssertionError("unreachable")


def _flaky_cell(cell: WorkCell) -> CellOutcome:
    """Test-only runner: hard-crash once, then succeed.

    The cell's ``scenario`` field carries a marker-file path; the first
    attempt creates it and dies without reporting, later attempts find
    it and return a fixed payload.  Only meaningful under the parallel
    runner (a serial run would take the whole process down).
    """
    marker = cell.scenario  # type: ignore[union-attr]
    # Every attempt (including the one about to crash) bumps this
    # counter, so the sweep's merged profile exposes whether a retried
    # cell's profiler data was absorbed once per *cell* (the contract:
    # a crashed attempt's profile dies with its process) or leaked in
    # once per *attempt*.
    PROFILER.count("flaky.attempts")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed-once\n")
        os._exit(17)
    return CellOutcome(cell=cell, ok=True, result=None, telemetry=b"flaky-ok\n")


#: Registered cell runners, selected by the cell's ``runner`` field.
RUNNERS: Dict[str, Callable[..., CellOutcome]] = {
    "experiment": _run_experiment_cell,
    "pretrain": _run_pretrain_cell,
    "adversarial": _run_adversarial_cell,
    "crash": _crash_cell,
    "hang": _hang_cell,
    "flaky": _flaky_cell,
}


def _profile_delta(before: dict, after: dict) -> dict:
    """The profiler counts between two snapshots of one process.

    Serial sweeps run many cells against the same process-global
    profiler; diffing isolates each cell's share so serial and parallel
    sweeps merge to the same per-subsystem totals.
    """
    prior = before.get("counters", {})
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - prior.get(name, 0)
        if delta:
            counters[name] = delta
    return {"counters": counters}


def run_cell(cell: WorkCell, profile: bool = True) -> CellOutcome:
    """Run one cell; exceptions become a structured failure outcome."""
    runner = RUNNERS[cell.runner]
    started = time.perf_counter()
    try:
        if profile:
            before = PROFILER.snapshot()
            with PROFILER.enabled_scope():
                outcome = runner(cell)
            outcome.profile = _profile_delta(before, PROFILER.snapshot())
        else:
            outcome = runner(cell)
    except Exception as exc:
        outcome = CellOutcome(
            cell=cell,
            ok=False,
            error={
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        )
    outcome.wall_s = time.perf_counter() - started
    outcome.pid = os.getpid()
    return outcome
