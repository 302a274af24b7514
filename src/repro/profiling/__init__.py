"""Lightweight profiling for the simulator's hot paths.

The profiler answers "where does simulation wall time go" without
perturbing simulated behaviour: it only reads the host's monotonic
clock, never the simulation clock, so enabling it cannot change any
experiment result.  It is disabled by default and instrumented call
sites pay two attribute lookups and one predictable branch when it is
off, which keeps the I/O critical path unencumbered.

Usage::

    from repro.profiling import PROFILER

    token = PROFILER.begin()
    ...hot work...
    PROFILER.end("ftl.gc", token)

or, for coarse phases::

    with PROFILER.timer("experiment.build"):
        experiment.build()

Snapshots are plain dictionaries so worker processes can ship them back
to a parent over a pipe and the parent can :func:`merge_profiles` them
into one per-subsystem view (``repro profile`` and
``repro sweep --show-profile`` both render these).
"""

from repro.profiling.profiler import (
    PROFILER,
    Profiler,
    SectionStats,
    format_profile,
    merge_profiles,
    namespace_profile,
)

__all__ = [
    "PROFILER",
    "Profiler",
    "SectionStats",
    "format_profile",
    "merge_profiles",
    "namespace_profile",
]
