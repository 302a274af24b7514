"""Sharded fleet execution with a zero-copy shared-memory state plane.

The ROADMAP's north star is a *fleet*: hundreds of simulated SSDs per
run, not a handful of collocated vSSDs on one device.  Running each
device as its own sweep cell pays a serialization tax at
every boundary — pickled outcomes over pipes, warm snapshots crossing as
``.npz`` blobs, every pool worker holding a private copy of identical
post-warm columns.  This package removes that tax:

* :class:`~repro.fleet.arena.SharedArena` places the warm-snapshot numpy
  columns (``BlockStore.page_lpns``/``erase_count``, ``ChannelArrays``
  horizons, L2P tables) into a named ``multiprocessing.shared_memory``
  segment; shard workers restore devices from a zero-copy view instead
  of unpickling (on by default; ``FleetShardRunner(arena=False)`` is
  the reference path it is tested byte-equal against).
* :class:`~repro.fleet.ring.TelemetryRing` is a preallocated
  shared-memory ring per shard; workers flush freshly completed
  telemetry windows into it once per decision window, so per-device
  telemetry never crosses the result pipe.
* :class:`~repro.fleet.runner.FleetShardRunner` schedules device shards
  round-robin across the persistent worker pool of ``repro.parallel``
  and merges rows in device order — the merged fleet telemetry is
  byte-identical to a serial loop over the same devices
  (:func:`~repro.fleet.runner.run_fleet_serial`).

Shard timings appear in ``repro profile`` under ``fleet.shard<k>.*``;
the ``ipc.bytes_saved`` and ``arena.attach`` counters quantify the
traffic the state plane removed.
"""

from repro.fleet.arena import ArenaManifest, SharedArena, leaked_segments
from repro.fleet.ring import TelemetryRing
from repro.fleet.runner import FleetResult, FleetShardRunner, build_fleet, run_fleet_serial
from repro.fleet.spec import DeviceSpec, FleetShardCell

__all__ = [
    "ArenaManifest",
    "SharedArena",
    "leaked_segments",
    "TelemetryRing",
    "FleetResult",
    "FleetShardRunner",
    "build_fleet",
    "run_fleet_serial",
    "DeviceSpec",
    "FleetShardCell",
]
