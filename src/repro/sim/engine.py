"""A small, deterministic discrete-event simulator.

The engine keeps a priority queue of timestamped events.  Time is a float
measured in microseconds (the natural unit for NAND timing).  Events that
share a timestamp fire in the order they were scheduled, which keeps runs
reproducible regardless of heap internals.

Cancellation is lazy — a cancelled event stays in the heap and is skipped
when popped — but the engine tracks how many cancelled entries the heap
holds and compacts it (filter + re-heapify) once they outnumber the live
ones.  Long runs that cancel aggressively (the dispatcher's retry events,
fault-injection timers) therefore keep the heap bounded by the live event
count instead of growing without limit.  Compaction preserves the
``(time, seq)`` total order, so firing order — and thus every simulation
result — is unchanged.

Hot-path layout: the heap holds ``(time, seq, event)`` tuples so sift
comparisons stay in C (``seq`` is unique, so the ``event`` field is never
compared), and :class:`Event` objects that have fired or were cancelled
and left the heap are recycled through a small free list, which removes
the dominant allocation on the event loop.  A recycled event is parked
with ``time = _DEAD`` so a late :meth:`Event.cancel` on a stale handle is
a no-op, exactly as cancelling an already-fired event always was.  The
one caveat is inherent to pooling: a handle retained after its event
fired may eventually alias a *new* event, so callers must drop (or
overwrite) handles once they fire — every in-tree caller already does.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.profiling import PROFILER

#: Park time for pooled (fired/cancelled-and-collected) events.  Negative
#: times are unschedulable, so no live event can ever carry this value.
_DEAD = -1.0


def _never() -> None:  # pragma: no cover - placeholder, immediately cleared
    raise AssertionError("a parked pool event must never fire")


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Events may be cancelled before they fire; a cancelled event is skipped
    by the event loop without invoking its callback.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "sim")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Back-reference used for live-count accounting; cleared when the
        #: event leaves the heap so late cancels cannot corrupt the count.
        self.sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent this event from firing."""
        # fleetlint: disable=float-time-equality  _DEAD is an exact sentinel assigned by the pool, never a computed time
        if self.time == _DEAD:
            return  # stale handle to a fired-and-recycled event: no-op
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.1f}us, seq={self.seq}, {state})"


class Simulator:
    """Event loop with a microsecond clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, "a")
    >>> _ = sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    #: Skip compaction below this heap size; filtering a handful of
    #: entries saves nothing.
    COMPACT_MIN_HEAP = 64

    #: Upper bound on the event free list; beyond this, dead events are
    #: left to the garbage collector.
    POOL_MAX = 128

    def __init__(self) -> None:
        #: Current simulation time in microseconds.  A plain attribute:
        #: the clock is read on every schedule/service call, and the
        #: property descriptor overhead was measurable (~700k reads per
        #: short run).
        self.now = 0.0
        self._heap: list = []  # (time, seq, Event) tuples
        #: Next scheduling sequence number.  A plain int (rather than
        #: ``itertools.count``) so the warm-state snapshot can capture
        #: and restore the exact position.
        self._next_seq = 0
        self._events_processed = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self._pool: list = []

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
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def heap_size(self) -> int:
        """Heap entries including lazily-cancelled ones (diagnostics)."""
        return len(self._heap)

    @property
    def heap_compactions(self) -> int:
        """Times the heap was compacted to shed cancelled entries."""
        return self._compactions

    def schedule(self, delay_us: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay_us`` from now."""
        if delay_us < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_us})")
        time = self.now + delay_us
        seq = self._next_seq
        self._next_seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, seq, callback, args)
        event.sim = self
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time_us: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_us``."""
        return self.schedule(time_us - self.now, callback, *args)

    def _release(self, event: Event) -> None:
        """Park a dead (fired or collected-cancelled) event for reuse."""
        pool = self._pool
        if len(pool) < self.POOL_MAX:
            event.time = _DEAD
            event.callback = None
            event.args = ()
            event.sim = None
            pool.append(event)

    def _note_cancelled(self) -> None:
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_HEAP
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant."""
        live = []
        for entry in self._heap:
            event = entry[2]
            if event.cancelled:
                event.sim = None
                self._release(event)
            else:
                live.append(entry)
        # In-place so hot loops holding a local reference to the heap
        # (run_until) stay valid across a mid-callback compaction.
        self._heap[:] = live
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1
        PROFILER.count("sim.heap_compactions")

    def _pop(self) -> Optional[Event]:
        """Pop the next live event, discarding cancelled ones."""
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            event.sim = None
            if event.cancelled:
                self._cancelled_in_heap -= 1
                self._release(event)
                continue
            return event
        return None

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        event = self._pop()
        if event is None:
            return False
        self.now = event.time
        self._events_processed += 1
        event.callback(*event.args)
        self._release(event)
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

        The loop body is inlined (no :meth:`step`/:meth:`_pop` calls) and
        the ``sim.events`` counter is bumped once per *call*, not per
        event.

        Events sharing a timestamp fire as one *batch*: the clock is
        written once per distinct time, then every live head carrying
        that exact time is drained in (time, seq) order.  Simulations
        produce many such batches — the per-page completions of a
        multi-page request land on one instant, as do aligned retry and
        window events.  Firing order is untouched (the same heap pops in
        the same order); only the per-event clock write and counter
        bookkeeping are hoisted out.  An event a callback schedules at
        the current instant joins the running batch, exactly as the
        per-event loop would have popped it next.
        """
        if time_us < self.now:
            raise ValueError(
                f"run_until({time_us}) is before current time {self.now}"
            )
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        pool = self._pool  # only ever mutated in place
        pool_max = self.POOL_MAX
        try:
            while heap:
                time, _seq, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    event.sim = None
                    self._cancelled_in_heap -= 1
                    self._release(event)
                    continue
                if time > time_us:
                    break
                self.now = time
                while True:
                    heappop(heap)
                    event.sim = None
                    event.callback(*event.args)
                    if len(pool) < pool_max:  # inlined _release()
                        event.time = _DEAD
                        event.callback = None
                        event.args = ()
                        pool.append(event)
                    fired += 1
                    # Advance to the next live head; extend the batch
                    # while its timestamp is bit-equal to the current
                    # instant.
                    event = None
                    while heap:
                        head = heap[0]
                        nxt = head[2]
                        if nxt.cancelled:
                            heappop(heap)
                            nxt.sim = None
                            self._cancelled_in_heap -= 1
                            self._release(nxt)
                            continue
                        # fleetlint: disable=float-time-equality  batch boundary: events batch iff their float timestamps are bit-equal, the same identity the heap order uses
                        if head[0] != time:
                            break
                        event = nxt
                        break
                    if event is None:
                        break
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
        nothing.  The free-list size is captured so a restored engine
        recycles :class:`Event` objects on exactly the same schedule as
        the original — pooled-handle aliasing behaviour included.
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
            "compactions": self._compactions,
            "pool_size": len(self._pool),
        }

    def restore(self, snapshot: dict) -> None:
        """Reset the engine to a :meth:`snapshot`'s state.

        The target engine must itself have an empty heap (a freshly
        built one always does): restore replaces scalars and re-parks
        ``pool_size`` dead events, it cannot re-create pending events.
        """
        if self._heap:
            raise ValueError(
                f"cannot restore over {len(self._heap)} pending heap entries"
            )
        self.now = snapshot["now"]
        self._next_seq = snapshot["next_seq"]
        self._events_processed = snapshot["events_processed"]
        self._compactions = snapshot["compactions"]
        self._cancelled_in_heap = 0
        del self._pool[:]
        for _ in range(snapshot["pool_size"]):
            dead = Event(_DEAD, 0, _never, ())
            dead.callback = None
            self._pool.append(dead)

    def close(self) -> None:
        """Drop every pending event: the end of the engine's life.

        Pending events hold bound methods of the components they call
        back (channels, dispatcher, FTLs, monitors, drivers), and those
        components hold the engine, so a finished stack with a non-empty
        heap is cyclic and waits for a full collection.  Each dropped
        event is parked dead, so a handle still held elsewhere cancels
        as a no-op.  Idempotent.
        """
        for _time, _seq, event in self._heap:
            event.time = _DEAD
            event.callback = None
            event.args = ()
            event.sim = None
        self._heap.clear()
        self._cancelled_in_heap = 0

    def detsan_state(self) -> dict:
        """A read-only engine snapshot for the determinism sanitizer.

        Captures the clock, the fired-event count, and the live heap as
        sorted ``(time, seq)`` pairs — enough to pin "same events, same
        order, same times" without touching engine state.  Sorting makes
        the snapshot independent of heap-internal layout, which can
        legitimately differ after a compaction.
        """
        live = sorted(
            (entry[0], entry[1])
            for entry in self._heap
            if not entry[2].cancelled
        )
        return {
            "now": self.now,
            "events_processed": self._events_processed,
            "pending": live,
        }
