"""A small, deterministic discrete-event simulator.

The engine keeps a priority queue of timestamped events.  Time is a float
measured in microseconds (the natural unit for NAND timing).  Events that
share a timestamp fire in the order they were scheduled, which keeps runs
reproducible regardless of heap internals.

A pending event is plain data: the heap entry ``(time, seq, callback,
args)`` itself.  ``seq`` is unique, so sift comparisons stay in C and never
reach the callback.  There is no handle and no cancellation; a caller that
may change its mind schedules a callback that checks, when it fires,
whether it is still wanted (the dispatcher's token retry carries a
generation number for this).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.profiling import PROFILER


class Simulator:
    """Event loop with a microsecond clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(10.0, fired.append, "a")
    >>> sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    2
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        #: Current simulation time in microseconds.  A plain attribute:
        #: the clock is read on every schedule/service call, and the
        #: property descriptor overhead was measurable (~700k reads per
        #: short run).
        self.now = 0.0
        self._heap: list = []  # (time, seq, callback, args) tuples
        #: Next scheduling sequence number.  A plain int (rather than
        #: ``itertools.count``) so the warm-state snapshot can capture
        #: and restore the exact position.
        self._next_seq = 0
        self._events_processed = 0

    @property
    def now_seconds(self) -> float:
        """Current simulation time in seconds."""
        return self.now / 1_000_000.0

    @property
    def events_processed(self) -> int:
        """Total events fired since construction."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired events."""
        return len(self._heap)

    def schedule(self, delay_us: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire ``delay_us`` from now."""
        if delay_us < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_us})")
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (self.now + delay_us, seq, callback, args))

    def schedule_at(self, time_us: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``time_us``."""
        self.schedule(time_us - self.now, callback, *args)

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        if not self._heap:
            return False
        time, _seq, callback, args = heapq.heappop(self._heap)
        self.now = time
        self._events_processed += 1
        callback(*args)
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire)."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired

    def run_until(self, time_us: float) -> int:
        """Run events with timestamps <= ``time_us``, then advance the clock.

        The clock always lands exactly on ``time_us`` so periodic callers
        (decision windows, admission batches) observe aligned boundaries.
        Each fired event sets the clock to its own time first; an event a
        callback schedules at or before the boundary fires in this same
        call, in ``(time, seq)`` order.  The ``sim.events`` counter is
        bumped once per call, not per event.
        """
        if time_us < self.now:
            raise ValueError(
                f"run_until({time_us}) is before current time {self.now}"
            )
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and heap[0][0] <= time_us:
                time, _seq, callback, args = heappop(heap)
                self.now = time
                callback(*args)
                fired += 1
        finally:
            self.now = time_us
            self._events_processed += fired
            PROFILER.count("sim.events", fired)
        return fired

    def run_until_seconds(self, time_s: float) -> int:
        """Like :meth:`run_until`, with the boundary given in seconds."""
        return self.run_until(time_s * 1_000_000.0)

    def run_windows(
        self,
        start_s: float,
        end_s: float,
        interval_s: float,
        on_window: Callable[[int], None],
    ) -> int:
        """Run to ``end_s`` in ``interval_s`` chunks with a callback each.

        Behavior-identical to one straight :meth:`run_until_seconds` of
        the whole span: the clock lands exactly on every boundary either
        way, events with timestamps inside a chunk fire in the same
        (time, seq) order, and a callback that neither draws randomness
        nor schedules events cannot perturb the run.  ``on_window(i)``
        fires after each boundary, including the final (possibly
        partial) window.  The determinism sanitizer's per-window
        checkpoint is the one caller.
        """
        fired = 0
        window = 0
        while True:
            boundary_s = min(start_s + (window + 1) * interval_s, end_s)
            fired += self.run_until_seconds(boundary_s)
            on_window(window)
            window += 1
            if boundary_s >= end_s:
                break
        return fired

    def snapshot(self) -> dict:
        """Capture the engine's scalar state for warm-state reuse.

        Only legal while the heap is *empty*: pending events hold
        callback closures that cannot be copied meaningfully, and the
        post-warm capture point (the only snapshot producer) schedules
        nothing.
        """
        if self._heap:
            raise ValueError(
                f"cannot snapshot an engine with {len(self._heap)} heap "
                "entries; callbacks are not copyable"
            )
        return {
            "now": self.now,
            "next_seq": self._next_seq,
            "events_processed": self._events_processed,
        }

    def restore(self, snapshot: dict) -> None:
        """Reset the engine to a :meth:`snapshot`'s state.

        The target engine must itself have an empty heap (a freshly
        built one always does): restore replaces scalars, it cannot
        re-create pending events.
        """
        if self._heap:
            raise ValueError(
                f"cannot restore over {len(self._heap)} pending heap entries"
            )
        self.now = snapshot["now"]
        self._next_seq = snapshot["next_seq"]
        self._events_processed = snapshot["events_processed"]

    def close(self) -> None:
        """Drop every pending event: the end of the engine's life.

        Pending events hold bound methods of the components they call
        back (channels, dispatcher, FTLs, monitors, drivers), and those
        components hold the engine, so a finished stack with a non-empty
        heap is cyclic and waits for a full collection.  Idempotent.
        """
        self._heap.clear()

    def detsan_state(self) -> dict:
        """A read-only engine snapshot for the determinism sanitizer.

        Captures the clock, the fired-event count, and the pending heap
        as sorted ``(time, seq)`` pairs — enough to pin "same events, same
        order, same times" without touching engine state.  Sorting makes
        the snapshot independent of heap-internal layout.
        """
        return {
            "now": self.now,
            "events_processed": self._events_processed,
            "pending": sorted((entry[0], entry[1]) for entry in self._heap),
        }
