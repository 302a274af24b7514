"""The profiler core: named wall-clock timers plus event counters.

Timers accumulate ``perf_counter_ns`` deltas per *section* — a named
subsystem region such as ``sim.event_loop`` or ``ftl.gc``.  Counters
accumulate plain integers (events fired, heap compactions, cache hits).
Everything is process-local; cross-process aggregation happens by
shipping :meth:`Profiler.snapshot` dictionaries and merging them with
:func:`merge_profiles`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional


class SectionStats:
    """Accumulated calls/time for one named section."""

    __slots__ = ("calls", "total_ns")

    def __init__(self, calls: int = 0, total_ns: int = 0) -> None:
        self.calls = calls
        self.total_ns = total_ns

    @property
    def total_s(self) -> float:
        """Total accumulated time in seconds."""
        return self.total_ns / 1e9

    @property
    def mean_us(self) -> float:
        """Mean time per call in microseconds."""
        if self.calls == 0:
            return 0.0
        return self.total_ns / self.calls / 1e3

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SectionStats(calls={self.calls}, total_s={self.total_s:.4f})"


class Profiler:
    """Named wall-clock timers and counters, off until enabled.

    The hot-path API is the ``begin()``/``end(name, token)`` pair: when
    the profiler is disabled ``begin`` returns 0 and ``end`` returns
    immediately, so disabled instrumentation costs two cheap calls.
    """

    __slots__ = ("enabled", "_timers", "_counters", "_declared")

    def __init__(self) -> None:
        self.enabled = False
        self._timers: dict = {}
        self._counters: dict = {}
        # Registered timer names: emitted by snapshot() with calls=0 when
        # never hit, so A/B profile tables (e.g. snapshots on vs off)
        # keep the same rows and diff cleanly.
        self._declared: set = set()

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        """Start recording (counters/timers keep any prior contents)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; accumulated data stays readable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all accumulated timers and counters.

        Declared timer names survive a reset — they are a static
        registry of what *can* be timed, not recorded data.
        """
        self._timers.clear()
        self._counters.clear()

    def declare(self, *names: str) -> None:
        """Register timer names that reports must always show.

        Modules declare their section names at import time; timers that
        never fire in a given run then still appear in :meth:`snapshot`
        (and every table built from it) with ``calls=0`` instead of
        silently vanishing, keeping A/B tables row-aligned.
        """
        self._declared.update(names)

    @contextmanager
    def enabled_scope(self) -> "Iterator[Profiler]":
        """Enable within a ``with`` block, restoring the prior state."""
        prior = self.enabled
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = prior

    # -- hot-path timing ----------------------------------------------
    def begin(self) -> int:
        """A timing token for :meth:`end`; 0 when disabled."""
        if not self.enabled:
            return 0
        return time.perf_counter_ns()

    def end(self, name: str, token: int) -> None:
        """Close a ``begin()`` token, crediting ``name``."""
        if not token:
            return
        elapsed = time.perf_counter_ns() - token
        section = self._timers.get(name)
        if section is None:
            section = self._timers[name] = SectionStats()
        section.calls += 1
        section.total_ns += elapsed

    def end_sampled(self, name: str, token: int, stride: int) -> None:
        """Close a ``begin()`` token for a 1-in-``stride`` sampled section.

        Credits ``stride`` calls and ``stride`` times the measured delta,
        so totals and means stay unbiased estimates of the full
        population while only every ``stride``-th call pays for two
        ``perf_counter_ns`` reads.  Used on per-request hot paths
        (``ftl.io``) where exact per-call timing was itself a measurable
        fraction of the section being timed.
        """
        if not token:
            return
        elapsed = time.perf_counter_ns() - token
        section = self._timers.get(name)
        if section is None:
            section = self._timers[name] = SectionStats()
        section.calls += stride
        section.total_ns += elapsed * stride

    @contextmanager
    def timer(self, name: str) -> "Iterator[None]":
        """Context-manager timing for coarse (non-hot-path) sections."""
        token = self.begin()
        try:
            yield
        finally:
            self.end(name, token)

    # -- counters ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + n

    # -- inspection ----------------------------------------------------
    def timers(self) -> dict:
        """Live name -> :class:`SectionStats` mapping (do not mutate)."""
        return self._timers

    def counters(self) -> dict:
        """Live name -> int mapping (do not mutate)."""
        return self._counters

    def absorb(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict into this profiler's totals.

        The inverse of shipping a snapshot out of a worker process: a
        parent that fans work out can absorb each worker's delta so its
        own report covers the whole run.  Works while disabled — the
        data was already recorded elsewhere.
        """
        for name, entry in snapshot.get("timers", {}).items():
            section = self._timers.get(name)
            if section is None:
                section = self._timers[name] = SectionStats()
            section.calls += entry["calls"]
            section.total_ns += entry["total_ns"]
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value

    def snapshot(self) -> dict:
        """A plain-dict copy, safe to pickle/JSON-serialize and merge.

        Declared-but-unhit timers are included with zero calls so
        downstream tables stay row-aligned across variant runs.
        """
        timers = {
            name: {"calls": s.calls, "total_ns": s.total_ns}
            for name, s in self._timers.items()
        }
        for name in sorted(self._declared):  # sorted: set order is salted
            if name not in timers:
                timers[name] = {"calls": 0, "total_ns": 0}
        return {"timers": timers, "counters": dict(self._counters)}

    def report(self) -> str:
        """Human-readable per-section table of this profiler's data."""
        return format_profile(self.snapshot())


def namespace_profile(snapshot: dict, prefix: str) -> dict:
    """Re-key a snapshot's *timers* under ``prefix`` (counters stay put).

    The fleet runner files each shard's timings under
    ``fleet.shard<k>.*`` so ``repro profile`` shows per-shard skew,
    while counters (cache hits, ``arena.attach``) remain global names
    that :func:`merge_profiles` sums across shards.
    """
    return {
        "timers": {
            f"{prefix}{name}": dict(entry)
            for name, entry in snapshot.get("timers", {}).items()
        },
        "counters": dict(snapshot.get("counters", {})),
    }


def merge_profiles(snapshots: Iterable[dict]) -> dict:
    """Sum several :meth:`Profiler.snapshot` dicts into one."""
    timers: dict = {}
    counters: dict = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, entry in snap.get("timers", {}).items():
            bucket = timers.setdefault(name, {"calls": 0, "total_ns": 0})
            bucket["calls"] += entry["calls"]
            bucket["total_ns"] += entry["total_ns"]
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {"timers": timers, "counters": counters}


def format_profile(snapshot: dict, total_label: Optional[str] = None) -> str:
    """Render a snapshot as an aligned text table.

    When ``total_label`` names a timer, every row is annotated with its
    share of that timer's total (the event loop is the natural 100%).
    """
    timers = snapshot.get("timers", {})
    counters = snapshot.get("counters", {})
    lines = []
    if timers:
        total_ns = None
        if total_label and total_label in timers:
            total_ns = timers[total_label]["total_ns"] or None
        width = max(len(name) for name in timers)
        lines.append(f"{'section':>{width}s} {'calls':>10s} {'total(s)':>10s} {'mean(us)':>10s}")
        for name in sorted(timers, key=lambda n: (-timers[n]["total_ns"], n)):
            entry = timers[name]
            mean_us = entry["total_ns"] / entry["calls"] / 1e3 if entry["calls"] else 0.0
            row = (
                f"{name:>{width}s} {entry['calls']:>10d} "
                f"{entry['total_ns'] / 1e9:>10.3f} {mean_us:>10.1f}"
            )
            if total_ns:
                row += f" {100.0 * entry['total_ns'] / total_ns:6.1f}%"
            lines.append(row)
    if counters:
        if timers:
            lines.append("")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"{name:>{width}s} {counters[name]:>12d}")
    return "\n".join(lines) if lines else "(no profile data)"


#: The process-wide profiler every instrumented subsystem reports to.
PROFILER = Profiler()
