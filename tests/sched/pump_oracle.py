"""The always-pump dispatcher, kept as a test oracle.

Before the pump was gated on a backlog counter (``IoDispatcher._queued``),
``_pump`` ran on every submit, completion and retry whether or not a
request was waiting: it asked the policy to ``select`` at least once and
always evaluated ``_schedule_retry_if_blocked`` afterwards, and
``_complete`` released channel slots through ``Channel.release`` and fanned
out through ``_notify``.  With every queue empty those calls do nothing;
``test_pump_differential.py`` puts this loop under one of two twin
dispatchers with :func:`use_always_pump` and requires identical behaviour.
It never reads or writes ``_queued``.
"""

from __future__ import annotations

from functools import partial

from repro.sched.dispatcher import IoDispatcher
from repro.sched.request import IoRequest


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
    dispatcher._pump = partial(pump_always, dispatcher)  # type: ignore[method-assign]
    dispatcher._complete = partial(complete_always, dispatcher)  # type: ignore[method-assign]
