"""Event counters for the simulator's hot paths.

The profiler answers "how much work did this run do" — events fired,
requests dispatched, blocks erased, decisions batched, snapshot hits —
without perturbing simulated behaviour: it reads neither the host clock
nor the simulation clock, so enabling it cannot change any experiment
result.  It is disabled by default; a per-request call site pays one
attribute test while it is off.

Usage::

    from repro.profiling import PROFILER

    if PROFILER.enabled:
        PROFILER.count("ftl.io_requests")

Per-layer *time* is measured outside the program, by the span tracer
of ``benchmarks/perf/run.py --trace 1``, whose self times sum to the
round's wall.

Snapshots are plain dictionaries so worker processes can ship them back
to a parent over a pipe and the parent can :func:`merge_profiles` them
into one view (``repro profile`` and ``repro sweep --show-profile`` both
render these).
"""

from repro.profiling.profiler import (
    PROFILER,
    Profiler,
    format_profile,
    merge_profiles,
)

__all__ = [
    "PROFILER",
    "Profiler",
    "format_profile",
    "merge_profiles",
]
