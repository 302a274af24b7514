"""Differential suite: backlog-gated pump vs the always-pump oracle.

``IoDispatcher`` pumps only while ``_queued`` (requests waiting across all
virtual queues) is non-zero, skips a completion's trailing pump when a
callback's submit already pumped to a blocked end (``_settled``), and arms
a retry only for a head waiting on its token bucket.  The loop it replaced
— pump on every submit, completion and retry, gate or no gate, plus the
old capacity wake and nothing-in-flight tick on a handle of their own —
lives on in ``pump_oracle.py``.  Twin stacks (engine, small device, three
single-channel vSSDs, one policy each of Fifo / Priority /
TokenBucketStride) take the same hypothesis-drawn steps: submit bursts,
clock advances, priority flips, ``unregister_vssd`` with requests still
queued, writes past a tenant's capacity whose failure callback re-submits
from inside the pump, and heads blocked on tokens or on the in-flight
budget.  After *every* step both twins must agree on the dispatch order
and times, each request's timestamps and outcome, the clock, token pairs
and stride passes down to the float bits, queue contents, in-flight
budgets and channel slots; the gated twin must never have fired more
events than the oracle, and must hold ``_queued == sum(len(q))``, which
its completion callbacks also check from inside a failing dispatch.  The
retry bookkeeping itself (pending heap, sequence numbers, the retry
generation) is not compared: the oracle arms wakes the gated twin never needs,
and none of them dispatches.  Example counts come from the active
hypothesis profile (``--hypothesis-profile ci`` in CI: derandomized, 300
examples).
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, strategies as st

from repro.config import SSDConfig
from repro.sched import (
    FifoPolicy,
    IoDispatcher,
    IoRequest,
    Priority,
    PriorityPolicy,
    TokenBucket,
    TokenBucketStridePolicy,
)
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from tests.sched.pump_oracle import use_always_pump

VSSDS = (0, 1, 2)
#: 3 channels x 2 chips x 2 blocks x 4 pages: each vSSD owns one channel
#: (16 pages), so writes over ``LPNS`` run a tenant out of space.
LPNS = 40
CONFIG = SSDConfig(
    num_channels=3, chips_per_channel=2, blocks_per_chip=2, pages_per_block=4,
    min_superblock_blocks=2, max_queue_depth=4, inflight_pages_per_channel=4,
)
PAGE = CONFIG.page_size
TICKETS = {0: 100, 1: 200, 2: 50}
POLICIES = ("fifo", "priority", "software")


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _make_policy(name: str):
    if name == "fifo":
        return FifoPolicy()
    if name == "priority":
        return PriorityPolicy()
    # One page per 400 us, two pages of burst: a 3-page request never
    # fits (an infinitely blocked head), smaller ones wait on refills.
    return TokenBucketStridePolicy(rate_bytes_per_us=PAGE / 400.0, burst_bytes=2.0 * PAGE)


def pump_decrementing_late(dispatcher: IoDispatcher) -> None:
    """Mutant of the gated ``_pump``: ``_queued`` drops *after* ``_dispatch``,
    so a failure callback that re-enters ``submit`` sees a stale count."""
    select = dispatcher.policy.select
    queues = dispatcher.queues
    while dispatcher._queued:
        choice = select(dispatcher.sim.now, queues, dispatcher._can_dispatch)
        if choice is None:
            dispatcher._schedule_retry_if_blocked()
            return
        dispatcher._dispatch(queues[choice].popleft())
        dispatcher._queued -= 1


def tokens_refilled_on_read(bucket: TokenBucket, now: float) -> float:
    """Mutant of ``TokenBucket.tokens``: a read stores the refill, so when
    a bucket is read depends on how often the dispatcher pumps."""
    if now > bucket._last:
        bucket._tokens = min(bucket.burst, bucket._tokens + (now - bucket._last) * bucket.rate)
        bucket._last = now
    return bucket._tokens


class Twin:
    """One engine + device + dispatcher, and everything it was asked to do."""

    def __init__(self, policy: str, oracle: bool, pump=None) -> None:
        self.sim = Simulator()
        self.ssd = Ssd(CONFIG, self.sim)
        self.policy = _make_policy(policy)
        self.dispatcher = IoDispatcher(self.sim, self.ssd, self.policy)
        for vssd_id in VSSDS:
            ftl = VssdFtl(vssd_id, self.ssd)
            ftl.adopt_blocks(self.ssd.allocate_channels(vssd_id, [vssd_id]))
            kwargs = {"tickets": TICKETS[vssd_id]} if policy == "software" else {}
            self.dispatcher.register_vssd(vssd_id, ftl, **kwargs)
        self.gated = not oracle
        if oracle:
            use_always_pump(self.dispatcher)
        elif pump is not None:
            self.dispatcher._pump = lambda: pump(self.dispatcher)
        self.requests: list = []
        self.index: dict = {}  # req_id -> position in self.requests
        self.dispatched: list = []
        self.completed: list = []
        self.resubmitted: set = set()
        dispatch = self.dispatcher._dispatch

        def logged_dispatch(request: IoRequest) -> None:
            self.dispatched.append((self.index[request.req_id], _bits(self.sim.now)))
            dispatch(request)

        self.dispatcher._dispatch = logged_dispatch
        self.dispatcher.add_completion_callback(self._on_complete)

    def _submit(self, vssd_id: int, op: str, lpn: int, pages: int) -> None:
        request = IoRequest(vssd_id, op, lpn, pages, PAGE, self.sim.now)
        self.index[request.req_id] = len(self.requests)
        self.requests.append(request)
        self.dispatcher.submit(request)

    def _on_complete(self, request: IoRequest) -> None:
        self.check_queued()
        position = self.index[request.req_id]
        self.completed.append(position)
        if request.failed and position not in self.resubmitted:
            # Out of space: the tenant retries a smaller write — from
            # inside _dispatch, i.e. re-entering submit() mid-pump.
            self.resubmitted.add(len(self.requests))
            self._submit(request.vssd_id, "write", request.lpn % 4, 1)

    def check_queued(self) -> None:
        if self.gated:
            dispatcher = self.dispatcher
            waiting = sum(len(queue) for queue in dispatcher.queues.values())
            assert dispatcher._queued == waiting

    def apply(self, step: tuple) -> None:
        kind = step[0]
        if kind == "submit":
            for vssd_id, op, lpn, pages in step[1]:
                self._submit(vssd_id, op, lpn, pages)
        elif kind == "advance":
            self.sim.run_until(self.sim.now + step[1])
        elif kind == "priority":
            if isinstance(self.policy, PriorityPolicy):
                self.policy.set_priority(step[1], Priority(step[2]))
        else:
            self.dispatcher.unregister_vssd(step[1])

    def state(self) -> dict:
        dispatcher = self.dispatcher
        state = {
            "dispatched": list(self.dispatched),
            "completed": list(self.completed),
            "requests": [
                (r.vssd_id, r.op, r.lpn, r.num_pages, r.submit_time,
                 r.dispatch_time, r.complete_time, r.failed)
                for r in self.requests
            ],
            "now": _bits(self.sim.now),
            "queues": {
                vssd_id: [self.index[r.req_id] for r in queue]
                for vssd_id, queue in dispatcher.queues.items()
            },
            "inflight": dict(dispatcher._inflight_pages),
            "outstanding": [channel.outstanding for channel in self.ssd.channels],
            "bus_busy": [_bits(busy) for busy in self.ssd.arrays.bus_busy],
            "failed": dispatcher.failed_requests,
        }
        if isinstance(self.policy, TokenBucketStridePolicy):
            state["tokens"] = {
                vssd_id: (_bits(bucket._tokens), _bits(bucket._last))
                for vssd_id, bucket in self.policy._buckets.items()
            }
            state["passes"] = {
                vssd_id: _bits(value)
                for vssd_id, value in self.policy._stride._pass.items()
            }
        if isinstance(self.policy, PriorityPolicy):
            state["priorities"] = dict(self.policy._priority)
        return state


def _outcome(twin: Twin, step: tuple):
    try:
        return "ok", twin.apply(step)
    except (KeyError, RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _check(policy: str, steps, pump=None) -> Twin:
    """Run ``steps`` on a gated and an always-pump twin, comparing after each."""
    fast = Twin(policy, oracle=False, pump=pump)
    ref = Twin(policy, oracle=True)
    for step in steps:
        assert _outcome(fast, step) == _outcome(ref, step), step
        fast.check_queued()
        assert fast.state() == ref.state(), step
        assert fast.sim.events_processed <= ref.sim.events_processed, step
    return fast


_request = st.tuples(
    st.sampled_from(VSSDS),
    st.sampled_from(("write", "write", "read")),
    st.integers(0, LPNS - 1),
    st.integers(1, 3),
)
#: Ten 2-page writes over 20 consecutive LPNs: more than a tenant holds.
_fill = st.builds(
    lambda vssd_id, start: (
        "submit",
        [(vssd_id, "write", (start + 2 * i) % (LPNS - 1), 2) for i in range(10)],
    ),
    st.sampled_from(VSSDS),
    st.integers(0, LPNS - 1),
)
_step = st.one_of(
    st.tuples(st.just("submit"), st.lists(_request, min_size=1, max_size=8)),
    _fill,
    st.tuples(
        st.just("advance"),
        st.sampled_from((0.0, 1.0, 100.0, 240.0, 400.0, 1500.0, 6000.0, 50_000.0)),
    ),
    st.tuples(st.just("priority"), st.sampled_from(VSSDS), st.integers(0, 2)),
    st.tuples(st.just("unregister"), st.sampled_from(VSSDS)),
)


@pytest.mark.parametrize("policy", POLICIES)
@given(steps=st.lists(_step, max_size=30))
def test_gated_pump_matches_always_pump(policy, steps):
    _check(policy, steps)


#: Tenant 0 writes 34 distinct pages into its 16-page channel.
_OVERFILL = [("submit", [(0, "write", lpn, 2) for lpn in range(0, 34, 2)])]


@pytest.mark.parametrize("policy", POLICIES)
def test_failure_callback_resubmits_from_inside_the_pump(policy):
    """Writes past a tenant's capacity fail inside ``_dispatch``; the
    callback's re-submit pumps again before the outer loop resumes."""
    steps = _OVERFILL + [("advance", 50_000.0)] * 3
    fast = _check(policy, steps)
    assert fast.dispatcher.failed_requests > 0
    assert fast.resubmitted
    assert len(fast.completed) == len(fast.requests)


def test_unregister_drops_a_backlog_from_the_count():
    # Nine 3-page reads: the in-flight budget (4 pages) holds most back.
    backlog = [(1, "read", lpn, 3) for lpn in range(9)]
    steps = [("submit", backlog), ("unregister", 1), ("submit", [(0, "write", 0, 1)])]
    fast = _check("fifo", steps + [("advance", 50_000.0)])
    assert fast.dispatcher._queued == 0
    assert [r for r in fast.requests if r.vssd_id == 1 and r.dispatch_time is None]


def test_token_blocked_heads_drain_through_identical_retries():
    burst = [(vssd_id, "write", lpn, 2) for lpn in range(4) for vssd_id in VSSDS]
    fast = _check("software", [("submit", burst)] + [("advance", 1500.0)] * 12)
    assert len(fast.completed) == len(burst)
    assert len({time for _pos, time in fast.dispatched}) > 1  # paced by refills
    assert fast.sim.events_processed > len(burst)  # completions plus fired retries


def test_mutant_decrementing_after_dispatch_is_caught():
    with pytest.raises(AssertionError):
        _check("fifo", _OVERFILL + [("advance", 50_000.0)], pump=pump_decrementing_late)


def test_mutant_refilling_on_read_is_caught(monkeypatch):
    """Ten 2-page writes from one tenant: the oracle's nothing-in-flight
    ticks read the bucket at instants the gated twin never pumps, which
    only a stored refill can turn into a different dispatch time."""
    monkeypatch.setattr(TokenBucket, "tokens", tokens_refilled_on_read)
    fill = [(0, "write", 2 * i, 2) for i in range(10)]
    with pytest.raises(AssertionError):
        _check("software", [("submit", fill), ("advance", 50_000.0)])


#: Tenant 0's second 3-page write waits on its 4-page in-flight budget;
#: under the software policy tenants 1 and 2 spend their 2-page burst on
#: the first write and wait on refills for the second.
_BLOCKED = [
    (0, "write", 0, 3), (0, "write", 4, 3),
    (1, "write", 0, 2), (1, "write", 2, 2),
    (2, "write", 0, 2), (2, "write", 2, 2),
]


def _trace(twin: Twin) -> tuple:
    state = twin.state()
    return (
        state.get("tokens"),
        state.get("passes"),
        state["queues"],
        twin.sim.detsan_state()["pending"],
        (twin.dispatcher._retry_at, twin.dispatcher._retry_gen),
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_blocked_pump_leaves_no_trace(policy):
    """A pump that selects nothing, later but before the next wake, leaves
    the buckets, stride passes, queues, heap and retry state as they were."""
    twin = Twin(policy, oracle=False)
    twin.apply(("submit", _BLOCKED))
    assert twin.dispatcher._queued
    before = _trace(twin)
    next_wake = before[3][0][0]
    twin.sim.run_until(next_wake / 2)
    assert twin.sim.events_processed == 0 and twin.sim.now > 0
    twin.dispatcher._pump()
    assert _trace(twin) == before
