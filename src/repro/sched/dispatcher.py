"""The I/O dispatcher: per-vSSD virtual queues feeding flash channels.

Each vSSD has a *virtual queue* of pending requests (the paper's QDelay
state is derived from it).  A :class:`SchedulingPolicy` orders dispatch
across queues; per-vSSD in-flight page budgets provide backpressure.
A dispatched request's page operations are served by the vSSD's FTL, one
completion event fires when the slowest page finishes, and completion
frees channel slots and re-pumps the queues.  The only other wake-up is a
retry for a head waiting on its token bucket.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.profiling import PROFILER
from repro.sched.policies import SchedulingPolicy
from repro.sched.request import IoRequest
from repro.ssd.ftl import OutOfSpaceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.ssd.device import Ssd
    from repro.ssd.ftl import VssdFtl


class IoDispatcher:
    """Connects per-vSSD virtual queues to the shared SSD's channels."""

    def __init__(self, sim: "Simulator", ssd: "Ssd", policy: SchedulingPolicy) -> None:
        self.sim = sim
        self.ssd = ssd
        self.policy = policy
        self.ftls: dict = {}
        self.queues: dict = {}
        #: Registration-ordered ``(vssd_id-or-None, callback)`` pairs.
        self._completion_callbacks: list = []
        #: vssd_id -> tuple of callbacks that want its completions,
        #: rebuilt lazily after any registration change.
        self._notify_cache: dict = {}
        self._retry_event = None
        #: The token instant the pending retry was armed for (its event
        #: time can differ from it by an ulp of clock arithmetic).
        self._retry_at = 0.0
        #: Requests waiting across all virtual queues.  The pump runs only
        #: while this is non-zero: with every queue empty each policy's
        #: ``select`` returns ``None`` without side effects and there is
        #: nothing to arm a retry for, so a pump with no backlog is a no-op.
        self._queued = 0
        #: Set when a pump ends blocked (a blocked pump leaves no trace);
        #: cleared by every pump, completion release and unregistration.
        #: While set, a completion's trailing pump would select nothing.
        self._settled = False
        self._inflight_pages: dict = {}
        self.failed_requests = 0
        # Dispatch-loop invariants hoisted off the per-request path (the
        # SSD config is fixed for the device's lifetime).
        self._inflight_per_channel = ssd.config.inflight_pages_per_channel
        self._channels = ssd.channels
        # ``Set_Priority`` exists only on the priority policy; resolved
        # here, not per dispatch.
        self._get_priority = getattr(policy, "get_priority", None)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_vssd(self, vssd_id: int, ftl: "VssdFtl", **policy_kwargs: Any) -> None:
        """Attach a vSSD's FTL and create its virtual queue."""
        if vssd_id in self.ftls:
            raise ValueError(f"vSSD {vssd_id} already registered")
        self.ftls[vssd_id] = ftl
        self.queues[vssd_id] = deque()
        self.policy.register_vssd(vssd_id, **policy_kwargs)

    def unregister_vssd(self, vssd_id: int) -> None:
        """Detach a vSSD (its queue is dropped)."""
        self.ftls.pop(vssd_id, None)
        self._queued -= len(self.queues.pop(vssd_id, ()))
        self.policy.unregister_vssd(vssd_id)
        self._notify_cache.clear()
        self._settled = False

    def add_completion_callback(
        self,
        callback: Callable[[IoRequest], None],
        vssd_id: Optional[int] = None,
    ) -> None:
        """``callback(request)`` fires when a request completes.

        ``vssd_id`` keys the callback to one tenant's completions —
        monitors and workload drivers only ever care about their own
        vSSD, and with several tenants registered the blanket fan-out
        (every callback invoked for every completion, each filtering
        internally) dominated ``_notify``.  ``None`` keeps the original
        fire-on-everything behaviour.  Relative order among the callbacks
        that observe a given request is registration order, exactly as
        before — the skipped calls were no-ops.
        """
        self._completion_callbacks.append((vssd_id, callback))
        self._notify_cache.clear()

    def close(self) -> None:
        """Drop the completion callbacks and the retry handle.

        Drivers hold :meth:`submit` and the callbacks hold the drivers'
        ``on_complete``, a cycle through every tenant; a closed
        dispatcher notifies nobody.  Idempotent.
        """
        self._completion_callbacks.clear()
        self._notify_cache.clear()
        self._retry_event = None

    # ------------------------------------------------------------------
    # Submission / queue inspection
    # ------------------------------------------------------------------
    def submit(self, request: IoRequest) -> None:
        """Enqueue a request and dispatch as far as policy allows."""
        queue = self.queues.get(request.vssd_id)
        if queue is None:
            raise KeyError(f"vSSD {request.vssd_id} not registered")
        queue.append(request)
        self._queued += 1
        self._pump()

    def queue_length(self, vssd_id: int) -> int:
        """Requests waiting in the vSSD's virtual queue."""
        return len(self.queues[vssd_id])

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _can_dispatch(self, request: IoRequest) -> bool:
        """Admission gate: a per-vSSD in-flight page budget.

        Each vSSD may keep ``max_queue_depth`` pages in flight per channel
        it can use — the submission-queue depth an NVMe device of this
        geometry would enforce.  The budget bounds how much backlog any
        tenant can pile onto the shared channels (the interference a
        collocated reader then sees is bounded by the sum of budgets),
        while still letting a bandwidth-intensive tenant fill every one
        of its channels' pipelines.
        """
        inflight = self._inflight_pages.get(request.vssd_id, 0)
        if inflight == 0:
            return True  # always admit at least one request
        ftl = self.ftls[request.vssd_id]
        budget = self._inflight_per_channel * ftl.channel_count()
        return inflight + request.num_pages <= budget

    def _pump(self) -> None:
        """Dispatch as many queued requests as the policy and budgets allow.

        Runs only while something is queued; a backlog the policy will
        not serve now settles, and arms a retry if a head waits on tokens.
        """
        self._settled = False
        select = self.policy.select
        queues = self.queues
        can_dispatch = self._can_dispatch
        sim = self.sim
        while self._queued:
            choice = select(sim.now, queues, can_dispatch)
            if choice is None:
                self._settled = True
                self._schedule_retry_if_blocked()
                return
            request = queues[choice].popleft()
            # Before _dispatch: a failed request's completion callbacks
            # may re-enter submit() and pump again.
            self._queued -= 1
            self._dispatch(request)

    def _schedule_retry_if_blocked(self) -> None:
        """Arrange a future pump when a head waits on its token bucket.

        Refills are the only blocker that lifts with time alone: a head
        held by the in-flight budget has a request in flight whose
        completion pumps, one with nothing in flight passes
        :meth:`_can_dispatch`, and one above its burst never fits.  The
        retry fires at the first instant the policy would take a head, so
        no earlier pump could dispatch.
        """
        when = self.policy.next_eligible_time(self.sim.now, self.queues)
        if when is None:
            return
        if self._retry_event is not None:
            if self._retry_at <= when:
                return
            self._retry_event.cancel()
        self._retry_at = when
        self._retry_event = self.sim.schedule(when - self.sim.now, self._retry_fire)

    def _retry_fire(self) -> None:
        """A scheduled retry: clear the handle first so a still-blocked
        pump can arm the next one (a fired event must not be mistaken
        for a pending one)."""
        self._retry_event = None
        self._pump()

    def _dispatch(self, request: IoRequest) -> None:
        if PROFILER.enabled:
            PROFILER.count("ftl.io_requests")
        sim = self.sim
        now = sim.now
        request.dispatch_time = now
        vssd_id = request.vssd_id
        ftl = self.ftls[vssd_id]
        # HIGH-priority vSSDs get bus-front arbitration for their pages.
        get_priority = self._get_priority
        try:
            front = get_priority is not None and get_priority(vssd_id) >= 2
        except KeyError:
            front = False
        try:
            # Fused span paths: one call places every page of the request
            # against the structure-of-arrays columns (see
            # ``VssdFtl.write_span``) instead of one FTL round-trip per
            # page.
            if request.op == "write":
                done, pages_by_channel = ftl.write_span(
                    request.lpn, request.num_pages, front=front
                )
            else:
                done, pages_by_channel = ftl.read_span(
                    request.lpn, request.num_pages, front=front
                )
        except OutOfSpaceError:
            # Slots are acquired only after all pages are placed, so there
            # is nothing to release here.
            request.failed = True
            request.complete_time = sim.now
            self.failed_requests += 1
            self._notify(request)
            return
        channels = self._channels
        for channel_id, pages in pages_by_channel.items():
            channels[channel_id].outstanding += pages  # inlined acquire()
        self._inflight_pages[vssd_id] = (
            self._inflight_pages.get(vssd_id, 0) + request.num_pages
        )
        sim.schedule(done - now, self._complete, request, pages_by_channel)

    def _complete(self, request: IoRequest, pages_by_channel: dict) -> None:
        request.complete_time = self.sim.now
        channels = self._channels
        for channel_id, pages in pages_by_channel.items():
            channel = channels[channel_id]
            channel.outstanding -= pages  # inlined release()
            if channel.outstanding < 0:
                raise RuntimeError(f"channel {channel_id} outstanding went negative")
        vssd_id = request.vssd_id
        inflight = self._inflight_pages
        if vssd_id in inflight:
            inflight[vssd_id] -= request.num_pages
        self._settled = False
        # Inlined _notify() (its cached-tuple leg).
        callbacks = self._notify_cache.get(vssd_id)
        if callbacks is None:
            self._notify(request)
        else:
            for callback in callbacks:
                callback(request)
        if self._queued and not self._settled:
            self._pump()

    def _notify(self, request: IoRequest) -> None:
        vssd_id = request.vssd_id
        callbacks = self._notify_cache.get(vssd_id)
        if callbacks is None:
            callbacks = self._notify_cache[vssd_id] = tuple(
                cb
                for fid, cb in self._completion_callbacks
                if fid is None or fid == vssd_id
            )
        for callback in callbacks:
            callback(request)
