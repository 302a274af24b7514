"""Parent-side fleet orchestration.

:class:`FleetShardRunner` runs a fleet's device cells on the persistent
worker pool of :class:`repro.parallel.runner.ParallelRunner`, one device
per pool cell, after priming the shared warm state (unless
``arena=False``).  The pool merges outcomes in device-index order and
every device runs through the one experiment cell runner, so the merged
bytes are identical to :func:`run_fleet_serial` over the same cells,
which is :func:`~repro.parallel.runner.run_serial` over them.

Priming is one probe build in the parent: ``Experiment.build`` leaves
the warm snapshot in the parent's snapshot store under the seed-free
:func:`~repro.harness.snapshots.warm_cache_key`, and the pool forks its
workers after it, so every worker inherits the entry and each device is
a cache hit: the warm state crosses no process boundary but the fork
itself.  Under ``spawn`` (no platform the pool supports picks it) a
worker inherits nothing and cold-builds its first device instead; the
bytes are the same.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.harness import snapshots
from repro.parallel.matrix import ExperimentCell
from repro.parallel.policy_cache import warm_policy_cache
from repro.parallel.runner import ParallelRunner, SweepResult, run_serial
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
class FleetResult(SweepResult):
    """A sweep over the fleet's devices, fleet order."""

    #: Warm-state sharing: ``mode`` (``inherit``, or ``off`` for the
    #: reference path) and ``published``, whether the parent's probe
    #: build primed its snapshot store before the pool forked.
    arena: dict = field(default_factory=dict)


def run_fleet_serial(
    specs: Sequence[ExperimentCell], profile: bool = True
) -> FleetResult:
    """The reference output: a serial loop of per-device experiments."""
    sweep = run_serial(specs, profile=profile)
    return FleetResult(
        outcomes=sweep.outcomes,
        wall_s=sweep.wall_s,
        workers=sweep.workers,
        mode=sweep.mode,
        arena={"mode": "off", "published": False},
    )


def _prime(device: ExperimentCell) -> bool:
    """Build and close ``device`` in this process; True if it built.

    A device that cannot be built primes nothing: its own cell reports
    the error, and the fleet's other devices still run.
    """
    try:
        probe = experiment_for(device)
        try:
            probe.build()
        finally:
            probe.close()
    except Exception:
        return False
    return True


class FleetShardRunner:
    """Runs a fleet's device cells on the persistent worker pool."""

    def __init__(
        self,
        workers: Optional[int] = None,
        arena: bool = True,
        join_timeout_s: Optional[float] = 900.0,
        max_attempts: int = 2,
        profile: bool = True,
        shards: Optional[int] = None,
    ) -> None:
        # ``shards`` is a leftover alias of ``workers``: one device is one
        # pool cell, so the only count left to choose is the pool's.
        if shards is not None and workers is not None and shards != workers:
            raise ValueError(f"shards={shards} differs from workers={workers}")
        #: Prime the parent's snapshot store with one probe build before
        #: the pool forks, so every worker inherits the warm state.
        #: ``False`` is the reference path priming is tested byte-equal
        #: against: a worker's store holds only what it inherited from
        #: earlier parent builds or built itself.
        self.arena = arena
        self.pool = ParallelRunner(
            workers=workers if workers is not None else shards,
            profile=profile,
            join_timeout_s=join_timeout_s,
            max_attempts=max_attempts,
        )

    def run(self, specs: Sequence[ExperimentCell]) -> FleetResult:
        started = time.perf_counter()
        specs = list(specs)
        priming: dict = {"mode": "inherit" if self.arena else "off", "published": False}
        # With snapshots off no build looks anything up: a probe would
        # only add a cold build.
        if specs and self.arena and snapshots.snapshots_enabled():
            # The warm state is seed-independent, so the one entry this
            # build leaves in the store serves every device of the
            # homogeneous fleet; the pool below forks after it.
            priming["published"] = _prime(specs[0])
        # FleetIO policies need the pre-trained net + classifier; warm
        # once in the parent so fork children inherit the memo caches.
        warm_policy_cache(specs)
        sweep = self.pool.run(specs)
        return FleetResult(
            outcomes=sweep.outcomes,
            wall_s=time.perf_counter() - started,
            workers=sweep.workers,
            mode=f"fleet/{sweep.mode}",
            arena=priming,
        )


def leaked_segments(shm_dir: str = "/dev/shm") -> List[str]:
    """Names of ``repro_``-prefixed shared-memory entries on the host.

    No code in this package creates one; the fleet tests and the
    benchmark assert the list stays empty.
    """
    root = Path(shm_dir)
    if not root.is_dir():  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(entry.name for entry in root.iterdir() if entry.name.startswith("repro_"))
