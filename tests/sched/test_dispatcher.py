"""Tests for the dispatcher: queues, budgets, completions, retries."""

import pytest

from repro.config import SSDConfig
from repro.sched import (
    FifoPolicy,
    IoDispatcher,
    IoRequest,
    Priority,
    PriorityPolicy,
    TokenBucketStridePolicy,
)
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl


@pytest.fixture
def stack(small_config):
    sim = Simulator()
    ssd = Ssd(small_config, sim)
    dispatcher = IoDispatcher(sim, ssd, FifoPolicy())
    ftl_a = VssdFtl(0, ssd)
    ftl_a.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
    ftl_b = VssdFtl(1, ssd)
    ftl_b.adopt_blocks(ssd.allocate_channels(1, [2, 3]))
    dispatcher.register_vssd(0, ftl_a)
    dispatcher.register_vssd(1, ftl_b)
    return sim, ssd, dispatcher, ftl_a, ftl_b


def _req(vssd_id, op="write", lpn=0, pages=1, t=0.0):
    return IoRequest(vssd_id, op, lpn, pages, 16384, t)


def test_submit_and_complete(stack):
    sim, ssd, dispatcher, *_ = stack
    done = []
    dispatcher.add_completion_callback(done.append)
    dispatcher.submit(_req(0))
    sim.run()
    assert len(done) == 1
    assert done[0].complete_time > 0
    assert done[0].dispatch_time == 0.0


def test_unregistered_vssd_rejected(stack):
    _sim, _ssd, dispatcher, *_ = stack
    with pytest.raises(KeyError):
        dispatcher.submit(_req(9))


def test_duplicate_registration_rejected(stack):
    sim, ssd, dispatcher, ftl_a, _ = stack
    with pytest.raises(ValueError):
        dispatcher.register_vssd(0, ftl_a)


def test_all_requests_eventually_complete(stack):
    sim, ssd, dispatcher, *_ = stack
    done = []
    dispatcher.add_completion_callback(done.append)
    for i in range(200):
        dispatcher.submit(_req(i % 2, lpn=i, pages=2))
    sim.run()
    assert len(done) == 200
    assert dispatcher.failed_requests == 0


def test_double_completion_raises_and_spares_the_other_budget(stack):
    """A request completed twice would hand its tenant budget it never
    charged; the guard sits on the counter admission reads."""
    sim, _ssd, dispatcher, *_ = stack
    done = []
    dispatcher.add_completion_callback(done.append)
    first = _req(0, pages=2)
    dispatcher.submit(first)
    sim.run()
    assert done == [first]
    other = _req(1, lpn=8, pages=3)
    dispatcher.submit(other)
    assert dispatcher._inflight_pages == {0: 0, 1: 3}
    with pytest.raises(RuntimeError, match="in-flight"):
        dispatcher._complete(first)
    assert dispatcher._inflight_pages == {0: 0, 1: 3}
    assert done == [first]
    sim.run()
    assert done == [first, other]
    assert dispatcher._inflight_pages == {0: 0, 1: 0}


def test_inflight_budget_limits_dispatch(stack, small_config):
    sim, ssd, dispatcher, ftl_a, _ = stack
    budget = small_config.inflight_pages_per_channel * ftl_a.channel_count()
    for i in range(50):
        dispatcher.submit(_req(0, lpn=i * 4, pages=4))
    inflight = dispatcher._inflight_pages[0]
    assert inflight <= budget + 4  # one request may overshoot
    assert dispatcher.queue_length(0) > 0
    sim.run()
    assert dispatcher.queue_length(0) == 0


def test_inflight_accounting_returns_to_zero(stack):
    sim, _ssd, dispatcher, *_ = stack
    for i in range(20):
        dispatcher.submit(_req(0, lpn=i, pages=2))
    sim.run()
    assert dispatcher._inflight_pages[0] == 0


def test_queue_delay_measured(stack):
    sim, ssd, dispatcher, *_ = stack
    latencies = []
    dispatcher.add_completion_callback(lambda r: latencies.append(r.queue_delay_us))
    for i in range(100):
        dispatcher.submit(_req(0, lpn=i, pages=4))
    sim.run()
    assert max(latencies) > 0.0  # later requests waited in the queue


def test_reads_follow_data_placement(stack):
    sim, ssd, dispatcher, ftl_a, _ = stack
    done = []
    dispatcher.add_completion_callback(done.append)
    ftl_a.warm_fill(range(8))
    dispatcher.submit(_req(0, op="read", lpn=3))
    sim.run()
    assert done[0].complete_time is not None


def test_hardware_isolated_vssds_do_not_interfere(stack, small_config):
    sim, ssd, dispatcher, *_ = stack
    lat = {0: [], 1: []}
    dispatcher.add_completion_callback(lambda r: lat[r.vssd_id].append(r.latency_us))
    # vSSD 0 hammers its own channels; vSSD 1 issues sparse reads.
    for i in range(100):
        dispatcher.submit(_req(0, lpn=i * 4, pages=4))
    dispatcher.submit(_req(1, op="read", lpn=0))
    sim.run()
    # vSSD 1's single read on its own channels is served at base latency.
    base = small_config.page_read_us + small_config.bus_transfer_us
    assert lat[1][0] <= base * 2


def test_priority_policy_orders_dispatch(small_config):
    sim = Simulator()
    ssd = Ssd(small_config, sim)
    policy = PriorityPolicy()
    dispatcher = IoDispatcher(sim, ssd, policy)
    half = small_config.blocks_per_channel // 2
    ftl_a = VssdFtl(0, ssd)
    ftl_a.adopt_blocks(ssd.allocate_blocks_striped(0, [0, 1], half))
    ftl_b = VssdFtl(1, ssd)
    ftl_b.adopt_blocks(ssd.allocate_blocks_striped(1, [0, 1], half))
    dispatcher.register_vssd(0, ftl_a)
    dispatcher.register_vssd(1, ftl_b)
    policy.set_priority(1, Priority.HIGH)
    lat = {0: [], 1: []}
    dispatcher.add_completion_callback(lambda r: lat[r.vssd_id].append(r.latency_us))
    for i in range(200):
        dispatcher.submit(_req(0, lpn=i * 2, pages=2))
        if i % 10 == 0:
            dispatcher.submit(_req(1, op="write", lpn=i))
    sim.run()
    import numpy as np

    assert np.mean(lat[1]) < np.mean(lat[0])


def test_no_deadlock_when_gc_saturates(small_config):
    """Regression: a burst that pushes every channel past its horizon
    while nothing is in flight must not stall forever."""
    config = SSDConfig(
        num_channels=2, chips_per_channel=2, blocks_per_chip=4, pages_per_block=8
    )
    sim = Simulator()
    ssd = Ssd(config, sim)
    dispatcher = IoDispatcher(sim, ssd, FifoPolicy())
    ftl = VssdFtl(0, ssd)
    ftl.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
    dispatcher.register_vssd(0, ftl)
    done = []
    dispatcher.add_completion_callback(done.append)
    total_pages = 2 * config.blocks_per_channel * config.pages_per_block
    ws = total_pages // 3
    for i in range(total_pages * 3):
        dispatcher.submit(_req(0, lpn=i % ws, pages=1))
    sim.run()
    assert len(done) == total_pages * 3
    assert dispatcher.failed_requests == 0


def test_head_larger_than_burst_arms_no_retry(small_config):
    """Regression: a head that can never fit its bucket used to be woken
    every bus-transfer slot (nothing in flight), 4 166 times a simulated
    second, although no wake could ever dispatch it."""
    page = small_config.page_size
    sim = Simulator()
    ssd = Ssd(small_config, sim)
    policy = TokenBucketStridePolicy(rate_bytes_per_us=page / 400.0, burst_bytes=2.0 * page)
    dispatcher = IoDispatcher(sim, ssd, policy)
    ftl = VssdFtl(0, ssd)
    ftl.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
    dispatcher.register_vssd(0, ftl)
    dispatcher.submit(IoRequest(0, "read", 0, 3, page, 0.0))
    sim.run_until(1e6)
    assert sim.events_processed == 0
    assert sim.pending_events == 0
    assert dispatcher.queue_length(0) == 1


def test_token_wait_is_not_deferred_by_a_blocked_neighbour(small_config):
    """Regression: a head that can never fit its bucket used to arm a tick
    every bus-transfer slot on the one retry handle, and the tick that
    landed just before another tenant's refill pushed that tenant's
    dispatch to one microsecond after it (801.99.. instead of 801)."""
    page = small_config.page_size
    sim = Simulator()
    ssd = Ssd(small_config, sim)
    policy = TokenBucketStridePolicy(rate_bytes_per_us=page / 400.0, burst_bytes=2.0 * page)
    dispatcher = IoDispatcher(sim, ssd, policy)
    for vssd_id, channels in ((0, [0, 1]), (1, [2, 3])):
        ftl = VssdFtl(vssd_id, ssd)
        ftl.adopt_blocks(ssd.allocate_channels(vssd_id, channels))
        dispatcher.register_vssd(vssd_id, ftl)
    dispatcher.submit(IoRequest(0, "read", 0, 3, page, 0.0))
    sim.run_until(1.0)
    first, second = (IoRequest(1, "write", lpn, 2, page, 1.0) for lpn in (0, 2))
    dispatcher.submit(first)
    dispatcher.submit(second)
    sim.run_until(5000.0)
    # The burst pays for the first write; the second waits 800 us of refill.
    assert (first.dispatch_time, second.dispatch_time) == (1.0, 801.0)
    assert sim.events_processed == 3  # two completions and one token retry


def test_superseded_token_retry_fires_as_a_no_op(small_config):
    """A strictly earlier token instant supersedes the pending retry.  The
    superseded event stays on the heap and fires with no ``select`` and
    no dispatch; the live retries dispatch at exactly each bucket's
    ``available_at``."""
    page = small_config.page_size
    sim = Simulator()
    ssd = Ssd(small_config, sim)
    policy = TokenBucketStridePolicy(rate_bytes_per_us=page / 400.0, burst_bytes=2.0 * page)
    dispatcher = IoDispatcher(sim, ssd, policy)
    for vssd_id, channels, rate in ((0, [0, 1], page / 400.0), (1, [2, 3], page / 100.0)):
        ftl = VssdFtl(vssd_id, ssd)
        ftl.adopt_blocks(ssd.allocate_channels(vssd_id, channels))
        dispatcher.register_vssd(vssd_id, ftl, rate_bytes_per_us=rate)
    selects, dispatches, fires = [], [], []
    select, dispatch, retry_fire = policy.select, dispatcher._dispatch, dispatcher._retry_fire

    def counting_select(*args):
        selects.append(sim.now)
        return select(*args)

    def counting_dispatch(request):
        dispatches.append(request)
        dispatch(request)

    def traced_retry_fire(gen):
        before = (len(selects), len(dispatches))
        retry_fire(gen)
        fires.append((sim.now, gen, len(selects) - before[0], len(dispatches) - before[1]))

    policy.select = counting_select
    dispatcher._dispatch = counting_dispatch
    dispatcher._retry_fire = traced_retry_fire

    slow = [IoRequest(0, "write", lpn, 2, page, 0.0) for lpn in (0, 2)]
    for request in slow:
        dispatcher.submit(request)
    slow_at = policy._buckets[0].available_at(2 * page)
    assert (dispatcher._retry_at, dispatcher._retry_gen) == (slow_at, 1)
    sim.run_until(1.0)
    fast = [IoRequest(1, "write", lpn, 2, page, 1.0) for lpn in (0, 2)]
    for request in fast:
        dispatcher.submit(request)
    fast_at = policy._buckets[1].available_at(2 * page)
    assert fast_at < slow_at
    assert (dispatcher._retry_at, dispatcher._retry_gen) == (fast_at, 2)

    sim.run_until(5000.0)
    assert (fast[1].dispatch_time, slow[1].dispatch_time) == (fast_at, slow_at)
    superseded = [fire for fire in fires if fire[1] == 1]
    assert superseded == [(slow_at, 1, 0, 0)]
    live = [(time, gen, dispatched) for time, gen, _selects, dispatched in fires if gen != 1]
    assert live == [(fast_at, 2, 1), (slow_at, 3, 1)]
    assert dispatcher._retry_at is None
