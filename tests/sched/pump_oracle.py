"""The always-pump dispatcher, kept as a test oracle.

Before the pump was gated on a backlog counter (``IoDispatcher._queued``),
``_pump`` ran on every submit, completion and retry whether or not a
request was waiting: it asked the policy to ``select`` at least once and
always evaluated the retry rule afterwards, and ``_complete`` released
channel slots through ``Channel.release``, fanned out through ``_notify``
and pumped again.  The retry rule was wider then, too: besides the token
wait it armed a wake for when a channel's bus fell back under its
queue-depth bound, and a one-transfer tick whenever nothing was in flight
(:func:`arm_capacity_wake`).  With every queue empty those calls do
nothing, and no admission rule reads a bus horizon, so no capacity wake
can dispatch; ``test_pump_differential.py`` puts this loop under one of
two twin dispatchers with :func:`use_always_pump` and requires identical
behaviour.  It never reads or writes ``_queued`` or ``_settled``.

The capacity wake has a generation number of its own here.  On the one
shared retry it replaced an armed token retry whenever it was sooner, and the
one-microsecond floor on a re-armed delay then let a tick landing just
before a refill push that dispatch past it
(``test_token_wait_is_not_deferred_by_a_blocked_neighbour`` in
``test_dispatcher.py``).  Kept apart, the wakes add pumps and nothing else,
which is the property the suite checks.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.sched.dispatcher import IoDispatcher
from repro.sched.request import IoRequest


def next_capacity_time(dispatcher: IoDispatcher) -> Optional[float]:
    """Earliest time a channel regains queue headroom, if any head is
    waiting: a channel is over its bound while ``bus_busy_until - now >=
    max_queue_depth * bus_transfer_us`` and regains headroom one transfer
    slot after dropping to it."""
    if not any(dispatcher.queues.values()):
        return None
    config = dispatcher.ssd.config
    xfer = config.bus_transfer_us
    bound = config.max_queue_depth * xfer
    now = dispatcher.sim.now
    soonest = None
    for busy_until in dispatcher.ssd.arrays.bus_busy:
        if busy_until >= now + bound:
            when = busy_until - bound + xfer
            if soonest is None or when < soonest:
                soonest = when
    if soonest is None and not any(dispatcher._inflight_pages.values()):
        soonest = now + xfer
    return soonest


def arm_capacity_wake(dispatcher: IoDispatcher) -> None:
    """The capacity wake and nothing-in-flight tick the retry rule used to
    arm, beside the token retry with a generation number of their own: a
    sooner wake supersedes the pending one, which then fires as a no-op,
    so at most one capacity wake is live at a time."""
    sim = dispatcher.sim
    when = next_capacity_time(dispatcher)
    if when is None:
        return
    wake_at = dispatcher._capacity_wake_at  # type: ignore[attr-defined]
    if wake_at is not None and wake_at <= when:
        return
    delay = max(1.0, when - sim.now)
    dispatcher._capacity_wake_at = sim.now + delay  # type: ignore[attr-defined]
    gen = dispatcher._capacity_wake_gen + 1  # type: ignore[attr-defined]
    dispatcher._capacity_wake_gen = gen  # type: ignore[attr-defined]
    sim.schedule(delay, capacity_wake_fire, dispatcher, gen)


def capacity_wake_fire(dispatcher: IoDispatcher, gen: int) -> None:
    if gen != dispatcher._capacity_wake_gen:  # type: ignore[attr-defined]
        return
    dispatcher._capacity_wake_at = None  # type: ignore[attr-defined]
    dispatcher._pump()


def pump_always(dispatcher: IoDispatcher) -> None:
    """``IoDispatcher._pump`` as it was: no backlog gate."""
    select = dispatcher.policy.select
    queues = dispatcher.queues
    can_dispatch = dispatcher._can_dispatch
    sim = dispatcher.sim
    while True:
        choice = select(sim.now, queues, can_dispatch)
        if choice is None:
            break
        request = queues[choice].popleft()
        dispatcher._dispatch(request)
    dispatcher._schedule_retry_if_blocked()
    arm_capacity_wake(dispatcher)


def complete_always(
    dispatcher: IoDispatcher, request: IoRequest, pages_by_channel: dict
) -> None:
    """``IoDispatcher._complete`` as it was: release, notify, always pump."""
    request.complete_time = dispatcher.sim.now
    for channel_id, pages in pages_by_channel.items():
        dispatcher._channels[channel_id].release(pages)
    if request.vssd_id in dispatcher._inflight_pages:
        dispatcher._inflight_pages[request.vssd_id] -= request.num_pages
    dispatcher._notify(request)
    dispatcher._pump()


def use_always_pump(dispatcher: IoDispatcher) -> None:
    """Route every pump and completion of ``dispatcher`` through the
    ungated loop above (``submit``, ``_retry_fire`` and the completion
    events all look ``_pump`` / ``_complete`` up on the instance)."""
    dispatcher._capacity_wake_at = None  # type: ignore[attr-defined]
    dispatcher._capacity_wake_gen = 0  # type: ignore[attr-defined]
    dispatcher._pump = partial(pump_always, dispatcher)  # type: ignore[method-assign]
    dispatcher._complete = partial(complete_always, dispatcher)  # type: ignore[method-assign]
