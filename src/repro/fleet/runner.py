"""Parent-side fleet orchestration.

:class:`FleetShardRunner` is the fleet counterpart of
:class:`repro.parallel.runner.ParallelRunner`: it slices N device cells
round-robin into K :class:`~repro.fleet.shard.FleetShardCell` work units,
primes the shared warm state (unless ``arena=False``), runs the shards
on the persistent worker pool, and merges the per-device telemetry each
shard sends back **in device-index order**.  Every device runs through
the one experiment cell runner, so the merged bytes are identical to
:func:`run_fleet_serial` over the same cells, which is itself just
:func:`~repro.parallel.runner.run_serial` over them.

Priming is one probe build in the parent: ``Experiment.build`` leaves
the warm snapshot in the parent's snapshot store under the seed-free
:func:`~repro.harness.snapshots.warm_cache_key`, and the pool forks its
workers after it, so every shard worker inherits the entry and each of
its devices is a cache hit: the warm state crosses no process boundary
but the fork itself.  Under ``spawn`` (no platform the pool supports
picks it) a worker inherits nothing and cold-builds its first device
instead; the bytes are the same.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.shard import FleetShardCell
from repro.harness import snapshots
from repro.parallel.matrix import ExperimentCell
from repro.parallel.policy_cache import warm_policy_cache
from repro.parallel.runner import CellOutcome, ParallelRunner, run_serial, usable_cores
from repro.parallel.worker import experiment_for


def build_fleet(
    devices: int,
    workloads: Sequence[str] = ("ycsb", "terasort"),
    policy: str = "adaptive",
    base_seed: int = 42,
    duration_s: float = 4.0,
    measure_after_s: float = 1.0,
    num_channels: Optional[int] = None,
) -> List[ExperimentCell]:
    """A homogeneous fleet: same workloads/policy, per-device seeds.

    One experiment cell per device; a device's fleet index is its
    position in the list.
    """
    return [
        ExperimentCell(
            scenario="+".join(workloads),
            workloads=tuple(workloads),
            policy=policy,
            seed=base_seed + i,
            duration_s=duration_s,
            measure_after_s=measure_after_s,
            num_channels=num_channels,
        )
        for i in range(devices)
    ]


@dataclass
class FleetResult:
    """Merged outcome of one fleet run."""

    #: The fleet's device cells, fleet order.
    specs: List[ExperimentCell] = field(default_factory=list)
    shards: int = 1
    workers: int = 1
    mode: str = "serial"
    #: Shard-level outcomes (CellOutcome | CellFailure), shard order.
    outcomes: list = field(default_factory=list)
    #: Fleet device index -> that device's telemetry bytes.
    device_telemetry: Dict[int, bytes] = field(default_factory=dict)
    wall_s: float = 0.0
    profile: dict = field(default_factory=dict)
    #: Warm-state sharing: ``mode`` (``inherit``, or ``off`` for the
    #: reference path) and ``published``, whether the parent's probe
    #: build primed its snapshot store before the pool forked.
    arena: dict = field(default_factory=dict)
    #: Human-readable reconstruction/shard failures.
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and len(self.device_telemetry) == len(self.specs)

    @property
    def telemetry(self) -> bytes:
        """Merged fleet telemetry, device-index order."""
        return b"".join(
            self.device_telemetry[i] for i in sorted(self.device_telemetry)
        )

    @property
    def telemetry_digest(self) -> str:
        import hashlib

        return hashlib.sha256(self.telemetry).hexdigest()

    @property
    def devices_per_sec(self) -> float:
        return len(self.specs) / self.wall_s if self.wall_s > 0 else 0.0


def run_fleet_serial(
    specs: Sequence[ExperimentCell], profile: bool = True
) -> FleetResult:
    """The reference output: a serial loop of per-device experiments.

    Byte-for-byte, each device contributes exactly what a sweep over
    one experiment cell per device would have merged (results CSV +
    window CSV) — this is the baseline the sharded runner's merged
    telemetry must equal.
    """
    started = time.perf_counter()
    specs = list(specs)
    sweep = run_serial(specs, profile=profile)
    device_telemetry: Dict[int, bytes] = {}
    errors: List[str] = []
    for index, outcome in enumerate(sweep.outcomes):
        if isinstance(outcome, CellOutcome) and outcome.ok:
            device_telemetry[index] = outcome.telemetry
        else:
            errors.append(outcome.describe())
    return FleetResult(
        specs=specs,
        shards=1,
        workers=1,
        mode="serial",
        outcomes=sweep.outcomes,
        device_telemetry=device_telemetry,
        wall_s=time.perf_counter() - started,
        profile=sweep.profile,
        arena={"mode": "off", "published": False},
        errors=errors,
    )


class FleetShardRunner:
    """Schedules device shards across the persistent worker pool."""

    def __init__(
        self,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        arena: bool = True,
        join_timeout_s: Optional[float] = 900.0,
        max_attempts: int = 2,
        profile: bool = True,
    ) -> None:
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.workers = workers
        #: Prime the parent's snapshot store with one probe build before
        #: the pool forks, so every worker inherits the warm state.
        #: ``False`` is the reference path priming is tested byte-equal
        #: against: a worker's store holds only what it inherited from
        #: earlier parent builds or built itself.
        self.arena = arena
        self.join_timeout_s = join_timeout_s
        self.max_attempts = max_attempts
        self.profile = profile

    # -- run -------------------------------------------------------------
    def run(self, specs: Sequence[ExperimentCell]) -> FleetResult:
        started = time.perf_counter()
        specs = list(specs)
        if not specs:
            return FleetResult(mode="fleet/empty")
        cores = usable_cores()
        shard_count = self.shards or min(len(specs), max(cores - 1, 1))
        shard_count = max(1, min(shard_count, len(specs)))
        indexed = list(enumerate(specs))

        priming: dict = {"mode": "inherit" if self.arena else "off", "published": False}
        # With snapshots off no build looks anything up: a probe would
        # only add a cold build.
        if self.arena and snapshots.snapshots_enabled():
            # The warm state is seed-independent, so the one entry this
            # build leaves in the store serves every device of the
            # homogeneous fleet; the pool below forks after it.
            probe = experiment_for(specs[0])
            try:
                probe.build()
            finally:
                probe.close()
            priming["published"] = True
        cells = [
            FleetShardCell(shard_index=k, devices=tuple(indexed[k::shard_count]))
            for k in range(shard_count)
        ]
        # FleetIO policies need the pre-trained net + classifier; warm
        # once in the parent so fork children inherit the memo caches.
        warm_policy_cache(specs)
        runner = ParallelRunner(
            workers=self.workers or shard_count,
            profile=self.profile,
            join_timeout_s=self.join_timeout_s,
            max_attempts=self.max_attempts,
        )
        sweep = runner.run(cells)
        device_telemetry, errors = self._merge(sweep.outcomes)
        return FleetResult(
            specs=specs,
            shards=shard_count,
            workers=sweep.workers,
            mode=f"fleet/{sweep.mode}",
            outcomes=sweep.outcomes,
            device_telemetry=device_telemetry,
            wall_s=time.perf_counter() - started,
            profile=sweep.profile,
            arena=priming,
            errors=errors,
        )

    # -- merge -----------------------------------------------------------
    def _merge(self, outcomes: list) -> Tuple[Dict[int, bytes], List[str]]:
        """Per-device telemetry in shard order; failed shards by name."""
        device_telemetry: Dict[int, bytes] = {}
        errors: List[str] = []
        for outcome in outcomes:
            if isinstance(outcome, CellOutcome) and outcome.ok:
                device_telemetry.update(outcome.result["telemetry"])
            else:
                errors.append(outcome.describe())
        return device_telemetry, errors


def leaked_segments(shm_dir: str = "/dev/shm") -> List[str]:
    """Names of ``repro_``-prefixed shared-memory entries on the host.

    No code in this package creates one; the fleet tests and the
    benchmark assert the list stays empty.
    """
    root = Path(shm_dir)
    if not root.is_dir():  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(entry.name for entry in root.iterdir() if entry.name.startswith("repro_"))
