"""Fleet execution over the persistent worker pool.

The ROADMAP's north star is a *fleet*: hundreds of simulated SSDs per
run, not a handful of collocated vSSDs on one device.  A fleet device is
an experiment cell (:func:`~repro.fleet.runner.build_fleet` returns one
per device, and a device's fleet index is its position), and a fleet
run is a sweep over those cells:

* :class:`~repro.fleet.runner.FleetShardRunner` runs each device as one
  cell on the persistent pool of ``repro.parallel`` (crash retry,
  watchdog, dynamic load balance and all), so one bad device fails only
  itself.  The pool merges in device-index order and every device runs
  through the same experiment cell runner as a sweep, so the merged
  fleet telemetry is byte-identical to a serial loop over the same
  devices (:func:`~repro.fleet.runner.run_fleet_serial`).
* The runner primes the shared warm state with one probe build in the
  parent: the build leaves the warm snapshot in the parent's snapshot
  store under the seed-free warm cache key, and the pool forks its
  workers after it, so every worker inherits the entry and every device
  of a homogeneous fleet is a cache hit (on by default;
  ``FleetShardRunner(arena=False)`` is the reference path it is tested
  byte-equal against).

Each device's outcome carries its own wall seconds; in the merged
profile ``snapshot.hits`` / ``snapshot.misses`` say how the devices
were built.
"""

from repro.fleet.runner import (
    FleetResult,
    FleetShardRunner,
    build_fleet,
    leaked_segments,
    run_fleet_serial,
)

__all__ = [
    "leaked_segments",
    "FleetResult",
    "FleetShardRunner",
    "build_fleet",
    "run_fleet_serial",
]
