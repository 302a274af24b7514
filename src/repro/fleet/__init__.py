"""Sharded fleet execution over the persistent worker pool.

The ROADMAP's north star is a *fleet*: hundreds of simulated SSDs per
run, not a handful of collocated vSSDs on one device.  A fleet device is
an experiment cell (:func:`~repro.fleet.runner.build_fleet` returns one
per device, and a device's fleet index is its position); this package
only decides how many of them share a worker and a warm state:

* :class:`~repro.fleet.runner.FleetShardRunner` deals devices
  round-robin into shards, runs each shard as one work cell on the
  persistent pool of ``repro.parallel`` (crash retry, watchdog and all),
  and merges the per-device telemetry the shards send back in
  device-index order.  Each device runs through the same experiment
  cell runner as a sweep, so the merged fleet telemetry is byte-identical
  to a serial loop over the same devices
  (:func:`~repro.fleet.runner.run_fleet_serial`).
* The runner primes the shared warm state with one probe build in the
  parent: the build leaves the warm snapshot in the parent's snapshot
  store under the seed-free warm cache key, and the pool forks its
  workers after it, so every shard worker inherits the entry and every
  device of a homogeneous fleet is a cache hit (on by default;
  ``FleetShardRunner(arena=False)`` is the reference path it is tested
  byte-equal against).

Each shard's result carries per-device wall seconds
(``device_wall_s``); in the merged profile ``snapshot.hits`` /
``snapshot.misses`` say how the devices were built.
"""

from repro.fleet.runner import (
    FleetResult,
    FleetShardRunner,
    build_fleet,
    leaked_segments,
    run_fleet_serial,
)
from repro.fleet.shard import FleetShardCell, run_fleet_shard

__all__ = [
    "leaked_segments",
    "FleetResult",
    "FleetShardRunner",
    "build_fleet",
    "run_fleet_serial",
    "run_fleet_shard",
    "FleetShardCell",
]
