"""The profiler core: named event counters.

Counters accumulate plain integers (events fired, requests dispatched,
cache hits).  Everything is process-local; cross-process aggregation
happens by shipping :meth:`Profiler.snapshot` dictionaries and merging
them with :func:`merge_profiles`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator


class Profiler:
    """Named counters, off until enabled.

    :meth:`count` returns immediately while disabled; a per-request call
    site tests :attr:`enabled` itself, so a disabled profiler costs it one
    attribute test.
    """

    __slots__ = ("enabled", "_counters")

    def __init__(self) -> None:
        self.enabled = False
        self._counters: dict = {}

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        """Start recording (counters keep any prior contents)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; accumulated counts stay readable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all accumulated counters."""
        self._counters.clear()

    @contextmanager
    def enabled_scope(self) -> "Iterator[Profiler]":
        """Enable within a ``with`` block, restoring the prior state."""
        prior = self.enabled
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = prior

    # -- counters ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + n

    # -- inspection ----------------------------------------------------
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
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value

    def snapshot(self) -> dict:
        """A plain-dict copy, safe to pickle/JSON-serialize and merge."""
        return {"counters": dict(self._counters)}


def merge_profiles(snapshots: Iterable[dict]) -> dict:
    """Sum several :meth:`Profiler.snapshot` dicts into one."""
    counters: dict = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {"counters": counters}


def format_profile(snapshot: dict) -> str:
    """Render a snapshot's counters as an aligned text table."""
    counters = snapshot.get("counters", {})
    if not counters:
        return "(no profile data)"
    width = max(len(name) for name in counters)
    return "\n".join(f"{name:>{width}s} {counters[name]:>12d}" for name in sorted(counters))


#: The process-wide profiler every instrumented subsystem reports to.
PROFILER = Profiler()
