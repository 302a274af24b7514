"""The six benchmark workloads, built from the program's public API only.

Every workload is closed loop with one client: a *round* is one call
into the program, and the next round starts when the previous returns.
The workload seed is the ``--seed`` argument and becomes the cell /
device-base / pre-train seed, so the program only ever sees generated
cells.  ``--quick`` shrinks every workload to its shortest useful size
for the smoke test; quick sizes have no pinned digest.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.fleet import FleetShardRunner, build_fleet, leaked_segments, run_fleet_serial
from repro.harness import snapshots
from repro.harness.pretrained import pretrained_cache_path
from repro.parallel import (
    ExperimentCell,
    ExperimentMatrix,
    PretrainCell,
    run_cell,
    run_serial,
    warm_policy_cache,
)
from repro.profiling import merge_profiles

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "pretrained_canonical.npz"


def install_pretrained_fixture() -> None:
    """Put the committed canonical policy net where the program looks.

    A cold ``get_pretrained_net()`` trains for minutes, which would swamp
    ``setup_s``; the child's ``REPRO_CACHE_DIR`` is a private temp
    directory, so nothing outside the checkout is read or written.  The
    pinned ``cell_fleetio_mixed`` digest proves the fixture is the
    canonical artifact.
    """
    target = pretrained_cache_path()
    if not target.exists():
        shutil.copyfile(FIXTURE, target)


@dataclass
class RoundResult:
    """What one round hands to the checks and the per-layer report."""

    ok: bool
    telemetry: bytes
    #: Profiler counters (``run_cell(profile=True)``), traced rounds only.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Sum of the public ``CellOutcome.wall_s`` over the round's cells.
    cell_wall_s: float = 0.0
    cells: int = 0
    #: Per-layer values read from public results, keyed by metric name.
    extra: Dict[str, float] = field(default_factory=dict)


def _from_outcomes(outcomes: list) -> RoundResult:
    """Fold ``CellOutcome``/``CellFailure`` rows into one round result."""
    good = [o for o in outcomes if getattr(o, "ok", False)]
    amplification: List[float] = []
    for outcome in good:
        vssds = getattr(outcome.result, "vssds", None) or {}
        amplification.extend(v.write_amplification for v in vssds.values())
    extra = {}
    if amplification:
        extra["ssd.ftl.write_amplification"] = sum(amplification) / len(amplification)
    return RoundResult(
        ok=len(good) == len(outcomes),
        telemetry=b"".join(o.telemetry for o in good),
        counters=merge_profiles(o.profile for o in good).get("counters", {}),
        cell_wall_s=sum(o.wall_s for o in good),
        cells=len(outcomes),
        extra=extra,
    )


class Workload:
    """One benchmark workload: ``prepare`` once, then ``round`` repeatedly."""

    #: ``BENCHMARK.json`` records why each workload exists.
    name = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""
    #: Work units one round completes (set by :meth:`prepare`).
    work = 0.0
    #: Worker processes a round keeps busy (1 = in-process).
    workers = 1
    #: How rounds execute (the fleet reports its pool's start method).
    mode = "in-process"

    def prepare(self, seed: int, quick: bool) -> None:
        raise NotImplementedError

    def round(self, profile: bool) -> RoundResult:
        raise NotImplementedError

    def extra_checks(self, first: RoundResult) -> Dict[str, bool]:
        """Workload-specific correctness checks beyond ok + byte-identity."""
        return {}


class CellWorkload(Workload):
    """One experiment cell, repeated: ``run_cell(ExperimentCell(...))``."""

    work_unit = "sim_s"

    def __init__(self, name, workloads, policy, duration_s, measure_after_s):
        self.name = name
        self._args = (tuple(workloads), policy, duration_s, measure_after_s)

    def prepare(self, seed: int, quick: bool) -> None:
        workloads, policy, duration_s, measure_after_s = self._args
        if quick:
            duration_s, measure_after_s = 1.0, 0.25
        self.cell = ExperimentCell(
            "+".join(workloads), workloads, policy, seed, duration_s, measure_after_s
        )
        self.work = duration_s
        install_pretrained_fixture()
        warm_policy_cache([self.cell])

    def round(self, profile: bool) -> RoundResult:
        return _from_outcomes([run_cell(self.cell, profile=profile)])


class SweepColdBuild(Workload):
    """A serial sweep of short cells with the warm-snapshot cache emptied
    before every round, so device build + warm fill + snapshot
    capture/restore are a large share of the wall."""

    name = "sweep_cold_build"
    work_unit = "cells"

    def prepare(self, seed: int, quick: bool) -> None:
        matrix = ExperimentMatrix.from_workloads(
            ("ycsb", "terasort"),
            ("hardware", "adaptive", "software", "fleetio"),
            seeds=tuple(range(seed, seed + (1 if quick else 2))),
            duration_s=0.5 if quick else 1.0,
            measure_after_s=0.125 if quick else 0.25,
        )
        self.cells = matrix.cells()
        self.work = float(len(self.cells))
        install_pretrained_fixture()
        warm_policy_cache(self.cells)

    def round(self, profile: bool) -> RoundResult:
        snapshots.clear_memory_cache()
        return _from_outcomes(run_serial(self.cells, profile=profile).outcomes)


class FleetShards(Workload):
    """The only multi-process workload: sharded fleet over the worker pool."""

    name = "fleet_shards"
    work_unit = "devices"

    def prepare(self, seed: int, quick: bool) -> None:
        self.workers = min(2, len(os.sched_getaffinity(0)))  # never more workers than cores
        self.specs = build_fleet(
            4 if quick else 12,
            policy="adaptive",
            base_seed=42 + seed,
            duration_s=0.4 if quick else 0.8,
            measure_after_s=0.1 if quick else 0.2,
        )
        self.work = float(len(self.specs))

    def round(self, profile: bool) -> RoundResult:
        runner = FleetShardRunner(
            shards=self.workers, workers=self.workers, arena=True, profile=profile
        )
        fleet = runner.run(self.specs)
        self.mode = fleet.mode
        counters = fleet.profile.get("counters", {})
        good = [o for o in fleet.outcomes if getattr(o, "ok", False)]
        return RoundResult(
            ok=fleet.ok,
            telemetry=fleet.telemetry,
            counters=counters,
            cell_wall_s=sum(o.wall_s for o in good),
            cells=len(fleet.outcomes),
            extra={
                "fleet.arena.payload_bytes": fleet.arena.get("payload_nbytes", 0),
                "fleet.leaked_segments": len(leaked_segments()),
            },
        )

    def extra_checks(self, first: RoundResult) -> Dict[str, bool]:
        serial = run_fleet_serial(self.specs, profile=False)
        return {
            "fleet telemetry equals run_fleet_serial": first.telemetry == serial.telemetry,
            "no leaked shared-memory segments": first.extra["fleet.leaked_segments"] == 0,
        }


class PretrainPpo(Workload):
    """PPO pre-training on both collection engines (scalar, then 8 envs)."""

    name = "pretrain_ppo"
    work_unit = "transitions"

    ROLLOUT_BATCH = 512

    def prepare(self, seed: int, quick: bool) -> None:
        iterations = 2 if quick else 10
        self.cells = [
            PretrainCell(
                seed,
                iterations,
                (
                    ("envs", envs),
                    # Short episodes: collection stops at whole episodes, and
                    # with the default 20 windows the transitions collected
                    # (hence the round's wall) swing +-15 % with the seed.
                    ("episode_windows", 5),
                    ("rollout_batch", self.ROLLOUT_BATCH),
                ),
            )
            for envs in (1, 8)
        ]
        # Requested rollout transitions: a fixed input size.  The number
        # actually collected overshoots by a few per cent and is reported
        # per layer as ``rl.transitions``.
        self.work = float(len(self.cells) * iterations * self.ROLLOUT_BATCH)

    def round(self, profile: bool) -> RoundResult:
        return _from_outcomes([run_cell(cell, profile=profile) for cell in self.cells])

    def extra_checks(self, first: RoundResult) -> Dict[str, bool]:
        rewards = [
            reward
            for line in first.telemetry.decode("utf-8").splitlines()
            for reward in json.loads(line)["mean_rewards"]
        ]
        return {"mean_rewards finite": bool(rewards) and all(map(math.isfinite, rewards))}


def all_workloads() -> List[Workload]:
    """Fresh workload objects, BENCHMARK.json order."""
    return [
        # The canonical digest cell: RL agents, gSB harvesting and GC all
        # live, so every simulator layer contributes and none dominates.
        CellWorkload("cell_fleetio_mixed", ("ycsb", "terasort"), "fleetio", 8.0, 2.0),
        # Read-dominated small I/O, zero GC, no RL: engine + dispatcher +
        # workload generation are ~85 % of wall and the FTL under 10 %.
        CellWorkload("cell_hardware_read", ("vdi-web", "ycsb"), "hardware", 10.0, 2.0),
        # The catalog's most write-heavy pair on fully shared channels
        # behind token-bucket + stride: write_span + run_gc ~45 % of wall.
        CellWorkload(
            "cell_software_write_gc", ("terasort", "batchanalytics"), "software", 8.0, 2.0
        ),
        SweepColdBuild(),
        FleetShards(),
        PretrainPpo(),
    ]


def get_workload(name: str) -> Workload:
    return {w.name: w for w in all_workloads()}[name]
