"""Sharded fleet execution over the persistent worker pool.

The ROADMAP's north star is a *fleet*: hundreds of simulated SSDs per
run, not a handful of collocated vSSDs on one device.  A fleet device is
an experiment cell (:meth:`~repro.fleet.spec.DeviceSpec.cell`); this
package only decides how many of them share a worker and a warm state:

* :class:`~repro.fleet.runner.FleetShardRunner` deals devices
  round-robin into shards, runs each shard as one work cell on the
  persistent pool of ``repro.parallel`` (crash retry, watchdog and all),
  and merges the per-device telemetry the shards send back in
  device-index order.  Each device runs through the same experiment
  cell runner as a sweep, so the merged fleet telemetry is byte-identical
  to a serial loop over the same devices
  (:func:`~repro.fleet.runner.run_fleet_serial`).
* :class:`~repro.fleet.arena.SharedArena` places the warm-snapshot numpy
  columns (``BlockStore.page_lpns``/``erase_count``, ``ChannelArrays``
  horizons, L2P tables) into a named ``multiprocessing.shared_memory``
  segment under the seed-free warm cache key, so one probe build in the
  parent serves every device of a homogeneous fleet; a shard worker
  installs the zero-copy view into its snapshot store and its devices
  hit it like any other entry (on by default;
  ``FleetShardRunner(arena=False)`` is the reference path it is tested
  byte-equal against).

Each shard's result carries per-device wall seconds
(``device_wall_s``); in the merged profile the ``arena.attach`` counter
says how many workers attached the segment, and ``snapshot.hits`` /
``snapshot.misses`` how the devices were built.
"""

from repro.fleet.arena import ArenaManifest, SharedArena, leaked_segments
from repro.fleet.runner import FleetResult, FleetShardRunner, build_fleet, run_fleet_serial
from repro.fleet.shard import run_fleet_shard
from repro.fleet.spec import DeviceSpec, FleetShardCell

__all__ = [
    "ArenaManifest",
    "SharedArena",
    "leaked_segments",
    "FleetResult",
    "FleetShardRunner",
    "build_fleet",
    "run_fleet_serial",
    "run_fleet_shard",
    "DeviceSpec",
    "FleetShardCell",
]
