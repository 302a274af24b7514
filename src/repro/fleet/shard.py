"""Shard cells and their worker-side executor.

A fleet run is N experiment cells, one simulated SSD each, dealt
round-robin into K :class:`FleetShardCell` work units that the
persistent pool of ``repro.parallel`` executes like any other cell.  A
device's fleet index is its position in the fleet list; a shard carries
``(index, cell)`` pairs in device order.

:func:`run_fleet_shard` runs one shard inside a pool worker.  Each
device goes through the registered ``experiment`` runner, the same
function :func:`~repro.parallel.runner.run_serial` (and so
:func:`~repro.fleet.runner.run_fleet_serial`) runs, which is what makes
sharded bytes equal serial bytes by construction.  Per-device telemetry
rides home in the outcome's ``result`` over the result pipe.

If the cell carries an arena manifest the worker attaches it first and
installs the shared segment's snapshot into its snapshot store, so its
devices hit it; a failed attach leaves the store as it was (at worst a
cold build+warm).
A device that raises fails its whole shard: the exception propagates to
:func:`~repro.parallel.worker.run_cell`, which reports it as a
deterministic, not-retried failure.

The runner registers itself on import.  ``repro/fleet/__init__.py``
imports this module, and unpickling a shard cell imports that package,
so a pool worker always has the runner before ``run_cell`` looks it up.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.fleet.arena import ArenaManifest, install_manifest
from repro.parallel.matrix import ExperimentCell
from repro.parallel.worker import RUNNERS, CellOutcome, register_runner


@dataclass(frozen=True)
class FleetShardCell:
    """One shard: a worker-sized slice of the fleet, in device order."""

    shard_index: int
    #: ``(fleet index, device cell)`` pairs — the index is the merge key
    #: that makes sharded telemetry byte-identical to a serial loop.
    devices: Tuple[Tuple[int, ExperimentCell], ...]
    #: Shared warm-state arena (None: regular snapshot path).
    arena: Optional[ArenaManifest] = None
    #: Name of the registered cell runner (``repro.parallel.worker``).
    runner: str = "fleet_shard"

    @property
    def cell_id(self) -> str:
        """Stable human-readable identity, e.g. ``fleet/shard3(x8)``."""
        return f"fleet/shard{self.shard_index}(x{len(self.devices)})"


def run_fleet_shard(cell: FleetShardCell) -> CellOutcome:
    """Run every device of the shard through the experiment cell runner.

    The outcome's ``result`` is a plain dict: ``shard``, ``devices``
    (fleet indices, shard order), ``arena_attached``, ``telemetry``
    (device index → results CSV + window CSV bytes) and
    ``device_wall_s`` (device index → seconds).
    """
    arena_attached = cell.arena is not None and install_manifest(cell.arena)
    telemetry: Dict[int, bytes] = {}
    device_wall_s: Dict[int, float] = {}
    for index, device in cell.devices:
        started = time.perf_counter()
        telemetry[index] = RUNNERS[device.runner](device).telemetry
        device_wall_s[index] = time.perf_counter() - started
    return CellOutcome(
        cell=cell,
        ok=True,
        result={
            "shard": cell.shard_index,
            "devices": [index for index, _ in cell.devices],
            "arena_attached": arena_attached,
            "telemetry": telemetry,
            "device_wall_s": device_wall_s,
        },
    )


register_runner("fleet_shard", run_fleet_shard)
