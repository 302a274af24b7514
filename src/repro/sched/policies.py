"""Pluggable dispatch-ordering policies for the I/O dispatcher.

A policy looks at the per-vSSD virtual queues and picks which queue's head
request dispatches next.  Three policies cover the paper's systems:

* :class:`FifoPolicy` — plain arrival order (hardware-isolated vSSDs have
  no cross-tenant contention, so ordering barely matters there).
* :class:`PriorityPolicy` — low/medium/high per-vSSD priorities driven by
  FleetIO's ``Set_Priority`` RL action (Section 3.3.2).
* :class:`TokenBucketStridePolicy` — the software-isolated baseline:
  token-bucket throttling plus stride scheduling (Section 4.1).
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Optional

from repro.sched.request import IoRequest, Priority
from repro.sched.stride import StrideScheduler
from repro.sched.token_bucket import TokenBucket

CanDispatch = Callable[[IoRequest], bool]


class SchedulingPolicy(abc.ABC):
    """Chooses which vSSD's head request dispatches next."""

    def register_vssd(self, vssd_id: int) -> None:
        """Called when a vSSD is attached to the dispatcher."""

    def unregister_vssd(self, vssd_id: int) -> None:
        """Called when a vSSD is detached."""

    @abc.abstractmethod
    def select(self, now: float, queues: dict, can_dispatch: CanDispatch) -> Optional[int]:
        """Return the vssd_id whose head request should dispatch, or None.

        Implementations must also charge any internal accounting (tokens,
        stride passes) for the selected request before returning — and
        must charge nothing when they return ``None``.  The dispatcher
        pumps only while a request is queued, on the invariant that a
        pump with no backlog is a no-op for every policy: with every
        queue empty ``select`` returns ``None`` and leaves no trace.
        """

    def next_eligible_time(self, now: float, queues: dict) -> Optional[float]:
        """Absolute time at which a currently blocked request becomes
        eligible (used to schedule a retry), or None if nothing is
        time-blocked.  The instant is the first at which ``select`` would
        take the head, and it must not move with ``now``: the dispatcher
        keeps a pending retry unless a later call returns a strictly
        earlier instant."""
        return None


class FifoPolicy(SchedulingPolicy):
    """Dispatch the globally oldest dispatchable head request."""

    def select(self, now: float, queues: dict, can_dispatch: CanDispatch) -> Optional[int]:
        """Pick the oldest dispatchable head across all queues."""
        best = None
        best_time = None
        for vssd_id, queue in queues.items():
            if not queue:
                continue
            head = queue[0]
            if not can_dispatch(head):
                continue
            if best_time is None or head.submit_time < best_time:
                best, best_time = vssd_id, head.submit_time
        return best


class PriorityPolicy(SchedulingPolicy):
    """Strict priority across vSSDs, FIFO within a priority level.

    FleetIO's RL agents raise a vSSD's priority when it suffers SLO
    violations or queueing delay; requests from higher-priority vSSDs
    always dispatch first.
    """

    def __init__(self) -> None:
        self._priority: dict = {}

    def register_vssd(self, vssd_id: int) -> None:
        """Give the vSSD the default MEDIUM priority."""
        self._priority.setdefault(vssd_id, Priority.MEDIUM)

    def unregister_vssd(self, vssd_id: int) -> None:
        """Forget the vSSD's priority."""
        self._priority.pop(vssd_id, None)

    def set_priority(self, vssd_id: int, priority: Priority) -> None:
        """Set the vSSD's scheduling priority (the Set_Priority action)."""
        if vssd_id not in self._priority:
            raise KeyError(f"unknown vSSD {vssd_id}")
        self._priority[vssd_id] = Priority(priority)

    def get_priority(self, vssd_id: int) -> Priority:
        """The vSSD's current scheduling priority."""
        return self._priority[vssd_id]

    def select(self, now: float, queues: dict, can_dispatch: CanDispatch) -> Optional[int]:
        """Highest-priority dispatchable head; FIFO within a level."""
        # Hot path (one call per dispatch attempt): scalar comparisons
        # instead of a (-priority, submit_time) tuple per queue — same
        # winner (higher priority, then older submission, then first
        # registered).
        best = None
        best_prio = 0
        best_time = 0.0
        priorities = self._priority
        medium = Priority.MEDIUM
        for vssd_id, queue in queues.items():
            if not queue:
                continue
            head = queue[0]
            if not can_dispatch(head):
                continue
            prio = priorities.get(vssd_id, medium)
            if (
                best is None
                or prio > best_prio
                or (prio == best_prio and head.submit_time < best_time)
            ):
                best = vssd_id
                best_prio = prio
                best_time = head.submit_time
        return best


class TokenBucketStridePolicy(SchedulingPolicy):
    """Software isolation: token-bucket throttling + stride scheduling.

    Each vSSD gets a token bucket sized to its bandwidth share; among
    vSSDs whose head fits their budget, a stride scheduler provides
    proportional sharing so high-intensity tenants cannot starve
    low-intensity ones.  The throttle is not work-conserving: a head
    waits for its own bucket to refill even while the channels idle (the
    dispatcher retries at :meth:`next_eligible_time`), and a head larger
    than its bucket's burst never dispatches.
    """

    def __init__(self, rate_bytes_per_us: float, burst_bytes: float) -> None:
        self._default_rate = rate_bytes_per_us
        self._default_burst = burst_bytes
        self._buckets: dict = {}
        self._stride = StrideScheduler()
        #: Scratch list reused across ``select`` calls (one call per
        #: dispatch attempt — a fresh list per call was a visible slice
        #: of the software policy's pump).  ``pick`` only iterates it.
        self._eligible: list = []

    def register_vssd(
        self,
        vssd_id: int,
        rate_bytes_per_us: Optional[float] = None,
        burst_bytes: Optional[float] = None,
        tickets: int = 100,
    ) -> None:
        """Create the vSSD's token bucket and stride entry."""
        self._buckets[vssd_id] = TokenBucket(
            rate_bytes_per_us or self._default_rate,
            burst_bytes or self._default_burst,
        )
        self._stride.add_client(vssd_id, tickets)

    def unregister_vssd(self, vssd_id: int) -> None:
        """Drop the vSSD's bucket and stride entry."""
        self._buckets.pop(vssd_id, None)
        self._stride.remove_client(vssd_id)

    def select(self, now: float, queues: dict, can_dispatch: CanDispatch) -> Optional[int]:
        """Stride-pick among heads whose buckets hold enough tokens."""
        eligible = self._eligible
        del eligible[:]
        for vssd_id, queue in queues.items():
            if not queue:
                continue
            head = queue[0]
            if not can_dispatch(head):
                continue
            bucket = self._buckets.get(vssd_id)
            if bucket is None or bucket.can_consume(head.size_bytes, now):
                eligible.append(vssd_id)
        choice = self._stride.pick(eligible)
        if choice is None:
            return None
        head = queues[choice][0]
        bucket = self._buckets.get(choice)
        if bucket is not None:
            bucket.consume(head.size_bytes, now)
        return choice

    def next_eligible_time(self, now: float, queues: dict) -> Optional[float]:
        """First instant a token-blocked head's bucket covers it, if any."""
        soonest = None
        for vssd_id, queue in queues.items():
            if not queue:
                continue
            bucket = self._buckets.get(vssd_id)
            if bucket is None:
                continue
            when = bucket.available_at(queue[0].size_bytes)
            # A head covered now waits on something else; an infinite
            # wait (request larger than the burst ceiling) must not
            # poison the retry schedule.
            if now < when < math.inf and (soonest is None or when < soonest):
                soonest = when
        return soonest
