"""Worker-side shard executor.

Runs one :class:`~repro.fleet.spec.FleetShardCell` — a device-ordered
slice of the fleet — inside a pool worker.  A fleet device is an
experiment cell: each one goes through the registered ``experiment``
runner, the same function :func:`~repro.parallel.runner.run_serial` (and
so :func:`~repro.fleet.runner.run_fleet_serial`) runs, which is what
makes sharded bytes equal serial bytes by construction.  Per-device
telemetry rides home in the outcome's ``result`` over the result pipe.

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
from typing import Dict, List

from repro.fleet.arena import install_manifest
from repro.fleet.spec import DeviceSpec, FleetShardCell
from repro.parallel.worker import RUNNERS, CellOutcome, register_runner


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
    for spec in cell.devices:
        started = time.perf_counter()
        device = spec.cell()
        telemetry[spec.index] = RUNNERS[device.runner](device).telemetry
        device_wall_s[spec.index] = time.perf_counter() - started
    return CellOutcome(
        cell=cell,
        ok=True,
        result={
            "shard": cell.shard_index,
            "devices": [spec.index for spec in cell.devices],
            "arena_attached": arena_attached,
            "telemetry": telemetry,
            "device_wall_s": device_wall_s,
        },
    )


def shard_device_count(devices: List[DeviceSpec], shards: int) -> List[int]:
    """Round-robin shard sizes (diagnostic helper for sizing docs)."""
    return [len(devices[k::shards]) for k in range(max(shards, 1))]


register_runner("fleet_shard", run_fleet_shard)
