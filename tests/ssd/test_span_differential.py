"""Differential suite: the fused host spans vs the per-page oracle.

``VssdFtl.write_span`` / ``read_span`` are the only way a host page
reaches flash in ``src/``; the ``write_page`` / ``read_page`` route they
replaced lives on in ``span_oracle.py``, composed from the object API.
Twin FTLs (the :class:`Twin` device of ``test_gc_differential.py``: own
channels 0-2, a bandwidth- and a capacity-purpose harvest region sharing
channel 3, one on channel 4 that a step flips to reclaiming) take the same
requests, one through the spans and one through the oracle, and after
*every* step the return value or exception — the completion time's
bits — and everything mutable must be equal: ``Twin.state`` plus each channel's unmapped-read chip turn.  Both
twins collect through the same GC, so this pins when a host write triggers
a collection, not what one does (``test_gc_differential.py``).  Example
counts come from the active hypothesis profile (``--hypothesis-profile ci``
in CI: derandomized, 300 examples).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from tests.ssd import span_oracle
from tests.ssd.test_gc_differential import (
    OWNED_PAGES, Twin, _channel_of, _churned, _fill_own,
)
from tests.test_hotpath_equivalence import _bits


class SpanTwin(Twin):
    """A :class:`Twin` whose host requests take one of the two routes."""

    def __init__(self, per_page: bool, harvest: bool, **config_overrides) -> None:
        super().__init__(False, harvest, **config_overrides)
        self.per_page = per_page

    def apply(self, step: tuple):
        kind = step[0]
        if kind in ("write", "read"):
            _kind, lpn, num_pages, front = step
            if self.per_page:
                return span_oracle.span(self.ftl, kind, lpn, num_pages, front)
            fused = self.ftl.write_span if kind == "write" else self.ftl.read_span
            return fused(lpn, num_pages, front=front)
        if kind == "trim":
            return self.ftl.trim_all()
        if kind == "offline":
            self.ssd.channels[step[1]].set_fault(offline=step[2])
            return None
        return super().apply(step)

    def state(self) -> dict:
        state = super().state()
        state["next_chip"] = [channel._next_write_chip for channel in self.ssd.channels]
        return state


def _outcome(twin: SpanTwin, step: tuple):
    try:
        result = twin.apply(step)
    except (RuntimeError, ValueError) as exc:  # OutOfSpaceError included
        return type(exc).__name__, str(exc)
    if step[0] in ("write", "read"):
        return "ok", _bits([result])
    return "ok", result


def _step_both(fast: SpanTwin, ref: SpanTwin, step: tuple):
    got, want = _outcome(fast, step), _outcome(ref, step)
    assert got == want, step
    assert fast.state() == ref.state(), step
    return got


def _check(steps, harvest=False, setup=lambda twin: None, **config_overrides):
    """Run ``steps`` on both twins; returns them and the outcomes."""
    fast = SpanTwin(False, harvest, **config_overrides)
    ref = SpanTwin(True, harvest, **config_overrides)
    for twin in (fast, ref):
        setup(twin)
    assert fast.state() == ref.state()
    return fast, ref, [_step_both(fast, ref, step) for step in steps]


def _steps(working_set: int, max_size: int = 40):
    """Spans of 1-16 pages: writes inside ``working_set`` (overwrites, once
    it is warm), reads reaching 60 pages past it (unmapped), with clock
    advances so bus horizons drain unevenly, trims, a channel going offline
    or coming back, and the region shape changes of the GC suite."""
    span = (st.integers(1, 16), st.booleans())
    return st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.integers(0, working_set - 1), *span),
            st.tuples(st.just("read"), st.integers(0, working_set + 59), *span),
            st.tuples(st.just("tick"), st.sampled_from([0.0, 60.0, 400.0, 5000.0])),
            st.tuples(st.just("offline"), st.integers(0, 4), st.booleans()),
            st.tuples(st.just("trim")),
            st.tuples(st.sampled_from(["recycle", "collect", "reclaim"]), st.integers(0, 2)),
        ),
        max_size=max_size,
    )


@settings(deadline=None)
@given(steps=_steps(160), threshold=st.sampled_from([0.2, 0.25, 1 / 3]))
def test_own_channels_only(steps, threshold):
    # 12 owned blocks a channel: 3 and 4 free are exactly 0.25 and 1/3,
    # the boundary of the strict ``free / owned < gc_threshold`` trigger.
    _check(steps, setup=_churned(160), gc_free_block_threshold=threshold)


@settings(deadline=None)
@given(steps=_steps(200))
def test_bandwidth_capacity_and_reclaiming_harvest_regions(steps):
    _check(steps, harvest=True, setup=_churned(200))


@settings(deadline=None)
@given(
    steps=_steps(160), channel=st.integers(0, 4),
    slowdown=st.sampled_from([1.0, 1.7, 6.0]), extra=st.sampled_from([0.0, 35.5]),
)
def test_one_channel_slowed(steps, channel, slowdown, extra):
    def setup(twin: SpanTwin) -> None:
        _churned(160)(twin)
        twin.ssd.channels[channel].set_fault(slowdown=slowdown, extra_latency_us=extra)

    _check(steps, harvest=True, setup=setup)


@settings(deadline=None)
@given(
    steps=_steps(OWNED_PAGES + 40, max_size=60), harvest=st.booleans(),
    threshold=st.sampled_from([0.2, 0.0]),
)
def test_nearly_full_device(steps, harvest, threshold):
    """Own channels run dry under host writes, urgent GC runs, and spans
    stop part-way with out-of-space.  At threshold 0 nothing collects
    before a channel is dry, so urgent GC is the only GC."""
    _check(
        steps, harvest=harvest, setup=_churned(OWNED_PAGES - 40),
        gc_free_block_threshold=threshold,
    )


@settings(deadline=None)
@given(steps=_steps(120), backlog=st.lists(st.integers(0, 40), min_size=5, max_size=5))
def test_channels_past_the_queue_depth_bound(steps, backlog):
    """With every horizon past the bound the pick is the least busy slot."""
    def setup(twin: SpanTwin) -> None:
        _churned(120)(twin)
        for channel_id, pages in enumerate(backlog):
            twin.ftl._arrays.bus_busy[channel_id] = twin.sim.now + pages * 240.0

    _check(steps, harvest=True, setup=setup)


# -- directed cases: each names one rule and shows the suite reaches it ----

def test_round_robin_resumes_where_the_last_span_stopped():
    fast, _ref, _ = _check(
        [("write", 0, 2, False), ("write", 2, 5, False)],
        setup=lambda twin: twin.ftl.warm_fill(range(1)),
    )
    # One warm page took channel 0; the spans carry on from channel 1.
    locate = fast.ssd.store.locate
    channels = [locate(fast.ftl.page_location(lpn)[0])[0] for lpn in range(7)]
    assert channels == [1, 2, 0, 1, 2, 0, 1]
    assert fast.ftl._write_rr == 8


def test_gc_triggers_strictly_below_the_threshold():
    def setup(twin: SpanTwin) -> None:
        offline = twin.ftl._arrays.offline
        offline[1] = offline[2] = True  # every page lands on channel 0
        # Six of its twelve blocks full, the first two all-invalid.
        twin.ftl.warm_fill(list(range(32)) + list(range(16)))

    # The first page opens two blocks: 4 of 12 FREE is the threshold, not
    # below it.  Sixteen pages on, the next two opened leave 2 of 12.
    steps = [
        ("write", 100, 1, False), ("tick", 5000.0),
        ("write", 101, 15, False), ("tick", 5000.0),
        ("write", 116, 1, False),
    ]
    fast, _ref, _ = _check(steps[:1], setup=setup, gc_free_block_threshold=1 / 3)
    assert fast.ftl.free_fraction(0) == 1 / 3 and fast.ftl.stats.gc_runs == 0
    fast, _ref, _ = _check(steps[:3], setup=setup, gc_free_block_threshold=1 / 3)
    assert fast.ftl.stats.gc_runs == 0
    fast, _ref, _ = _check(steps, setup=setup, gc_free_block_threshold=1 / 3)
    assert fast.ftl.stats.gc_runs == 1 and fast.ftl.stats.blocks_erased == 2


# -- the span-scoped picker (``VssdFtl.write_span``'s docstring) -------------
# The queue-depth bound is 16 transfers of 240 us: 3 840 us of bus work.

def _landed(twin: SpanTwin, lpns) -> list:
    return [_channel_of(twin, lpn) for lpn in lpns]


def _backlog(twin: SpanTwin, *backlogs: float) -> None:
    """Bus work queued on channels 0, 1, ... (us ahead of now)."""
    for channel_id, backlog in enumerate(backlogs):
        twin.ftl._arrays.bus_busy[channel_id] = twin.sim.now + backlog


def test_an_offline_channel_takes_host_writes_only_when_none_is_online():
    """``Channel.set_fault``: offline accepts no new dispatch.  With every
    online channel past the queue-depth bound the least-busy pick passes
    over the idle offline channel; once no channel is online it is the
    least busy of them all."""
    def setup(twin: SpanTwin) -> None:
        _churned(120)(twin)
        twin.ssd.channels[0].set_fault(offline=True)
        _backlog(twin, 0.0, 20 * 240.0, 20 * 240.0)

    steps = [
        ("write", 0, 3, False), ("offline", 1, True), ("offline", 2, True),
        ("write", 3, 2, False),
    ]
    fast, _ref, _ = _check(steps, setup=setup)
    # 1 and 2 tie at 20 pages of backlog: 1, then 2, then 1 on the tie.
    assert _landed(fast, range(5)) == [1, 2, 1, 0, 0]


def test_a_span_whose_eligible_slots_run_out_takes_the_least_busy_for_the_rest():
    """Each page pushes its channel 240 us out: channel 1 leaves the
    round-robin after one page, 0 after two and 2 after four, and the last
    three pages of the span take the least busy channel, 1, 2, then 0."""
    def setup(twin: SpanTwin) -> None:
        _backlog(twin, 3500.0, 3700.0, 3000.0)
        twin.ftl._write_rr = 0

    fast, _ref, _ = _check([("write", 0, 10, False)], setup=setup)
    assert _landed(fast, range(10)) == [0, 1, 2, 0, 2, 2, 2, 1, 2, 0]
    # Seven turns over 3 slots that skipped 5 ineligible ones, then 3 more.
    assert fast.ftl._write_rr == 15


def test_the_two_harvest_regions_on_channel_3_leave_the_round_robin_together():
    """Slots 3 and 4, the bandwidth and capacity gSBs, share channel 3.  Its
    first page crosses the bound, so the next turn may not take slot 4:
    nothing is eligible, and the least busy channel, 4 (slot 5, the late
    gSB), goes first, then channel 3 again on its lower slot."""
    def setup(twin: SpanTwin) -> None:
        _backlog(twin, 5000.0, 5100.0, 5200.0, 3700.0, 3900.0)
        twin.ftl._write_rr = 3

    fast, _ref, _ = _check([("write", 0, 3, False)], harvest=True, setup=setup)
    assert _landed(fast, range(3)) == [3, 4, 3]
    gsb_of = fast.ssd.store.gsb_of
    assert [gsb_of[fast.ftl.page_location(lpn)[0]] for lpn in range(3)] == [0, 2, 0]


def test_equal_clamped_horizons_go_to_the_lowest_slot():
    """Past the bound at one horizon, or (every channel offline) idle since
    different instants, which clamp to the same zero: either way the
    least-busy pick is the lowest slot, wherever the round-robin stood."""
    def past_the_bound(twin: SpanTwin) -> None:
        _backlog(twin, 5000.0, 5000.0, 5000.0)
        twin.ftl._write_rr = 2

    def idle_and_offline(twin: SpanTwin) -> None:
        twin.sim.now += 1000.0
        _backlog(twin, -100.0, -500.0, -50.0)
        for channel in twin.ssd.channels[:3]:
            channel.set_fault(offline=True)
        twin.ftl._write_rr = 2

    for setup in (past_the_bound, idle_and_offline):
        fast, _ref, _ = _check([("write", 0, 4, False)], setup=setup)
        assert _landed(fast, range(4)) == [0, 1, 2, 0], setup.__name__
        assert fast.ftl._write_rr == 6


def test_a_collection_mid_span_rederives_the_picker():
    """Channels 0 and 1 each hold 4 of 12 blocks FREE, the GC bound at a
    third, and open blocks with one page left.  Page 4 of the span opens
    two more on channel 0 and collects there; the copy-back goes to idle
    channel 1 and opens two of its blocks.  Channel 1 was tested at the
    bound on pages 1 and 3, so the span must test it afresh and collect it
    on page 5; and channel 0's collection put it past the bound, so the
    rest of the span goes to channel 1."""
    def warm(twin: SpanTwin, channel_id: int, lpns: list) -> None:
        offline = twin.ftl._arrays.offline
        for other in range(5):
            offline[other] = other != channel_id
        twin.ftl.warm_fill(lpns)
        for other in range(5):
            offline[other] = False

    def setup(twin: SpanTwin) -> None:
        warm(twin, 0, list(range(62)))
        # Overwriting LPNs 0-3 from channel 1 leaves channel 0's first
        # block half valid: the victim, with pages to copy back.
        warm(twin, 1, list(range(4)) + list(range(1000, 1058)))
        twin.ssd.channels[2].set_fault(offline=True)
        _backlog(twin, 2000.0)
        twin.ftl._write_rr = 0
        if not twin.per_page:
            run_gc = twin.ftl.run_gc
            twin.ftl.run_gc = lambda channel_id, urgent=False: (
                collected.append(channel_id) or run_gc(channel_id, urgent)
            )

    collected: list = []
    fast, _ref, _ = _check(
        [("write", 2000, 8, False)], setup=setup, gc_free_block_threshold=1 / 3
    )
    assert collected[:2] == [0, 1]
    assert fast.ftl.stats.gc_writes > 0
    assert _landed(fast, range(2000, 2008)) == [0, 1, 0, 1, 0, 1, 1, 1]


def test_urgent_gc_mid_span_rederives_the_picker():
    """Threshold 0, so only urgent GC collects.  Channels 0 and 1 sit past
    the bound with two pages of room each; channel 2 is full and idle,
    two of its blocks all-invalid.  The span runs 0 and 1 dry on their
    least-busy turns, urgent GC frees channel 2, and the page after the
    slow path must find channel 2 eligible again: no slot's ineligibility
    outlives the epoch it was found in."""
    def warm(twin: SpanTwin, channel_id: int, lpns: list) -> None:
        offline = twin.ftl._arrays.offline
        for other in range(5):
            offline[other] = other != channel_id
        twin.ftl.warm_fill(lpns)
        for other in range(5):
            offline[other] = False

    def setup(twin: SpanTwin) -> None:
        warm(twin, 2, list(range(96)))
        # LPNs 0-15 filled two of channel 2's blocks; 300-315 two of 0's.
        warm(twin, 0, list(range(16)) + list(range(300, 376)))
        warm(twin, 1, list(range(300, 316)) + list(range(400, 476)))
        _backlog(twin, 5000.0, 5100.0, 0.0)
        twin.ftl._write_rr = 0

    fast, _ref, _ = _check(
        [("write", 500, 10, False)], setup=setup, gc_free_block_threshold=0.0
    )
    assert _landed(fast, range(500, 510)) == [0, 1, 0, 1, 0, 1, 0, 1, 2, 2]
    assert fast.ftl.stats.blocks_erased == 4


def test_unmapped_reads_rotate_own_channels_and_chips_and_ignore_front():
    def setup(twin: SpanTwin) -> None:
        twin.ftl._arrays.bus_busy[0] = twin.sim.now + 2400.0  # a backlog to jump

    fast, _ref, _ = _check([("read", 500, 7, True)], harvest=True, setup=setup)
    assert fast.ftl.stats.unmapped_reads == 7
    assert [channel._next_write_chip for channel in fast.ssd.channels] == [1, 0, 0, 0, 0]
    # At normal priority the three reads on channel 0 queue behind the
    # backlog; ``front`` would have finished them inside it.
    bus_busy = fast.ftl._arrays.bus_busy
    assert bus_busy[0] == fast.sim.now + 2400.0 + 3 * 240.0
    # Two reads each on channels 1 and 2; never channel 3 or 4.
    assert bus_busy[1] == bus_busy[2] > 0.0
    assert bus_busy[3] == bus_busy[4] == 0.0


def test_a_span_that_runs_out_of_space_keeps_the_pages_it_placed():
    steps = [("write", 5000, 20, False)]
    fast, ref, outcomes = _check(steps, setup=lambda twin: _fill_own(twin, OWNED_PAGES - 3))
    assert outcomes == [("OutOfSpaceError", "vSSD 0: no programmable block available")]
    for twin in (fast, ref):
        assert twin.ftl.stats.host_writes == 3
        assert twin.ftl.mapped_pages() == OWNED_PAGES
        assert len(twin.ftl._l2p_gid) == 5020
    # The slow path's retries moved the round-robin on; the span hands it
    # back as the oracle leaves it.
    assert fast.ftl._write_rr == ref.ftl._write_rr > 3


def test_an_ftl_without_channels_cannot_read():
    outcomes = []
    for read in (
        lambda ftl: ftl.read_span(0, 2),
        lambda ftl: span_oracle.span(ftl, "read", 0, 2),
    ):
        ftl = VssdFtl(0, Ssd(SSDConfig(num_channels=1, blocks_per_chip=2), Simulator()))
        try:
            outcomes.append(read(ftl))
        except RuntimeError as exc:
            outcomes.append((type(exc).__name__, str(exc), ftl.stats.host_reads))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == ("OutOfSpaceError", "vSSD 0 has no channels to read from", 0)


def test_the_drawn_steps_reach_the_uncommon_paths():
    """A fixed long run: the hypothesis budget above is not what decides
    whether channel exhaustion, urgent GC and out-of-space are exercised
    at all."""
    rng = np.random.default_rng(1)
    steps = []
    for _ in range(700):
        roll = rng.random()
        span = (int(rng.integers(1, 17)), bool(rng.random() < 0.25))
        if roll < 0.55:
            steps.append(("write", int(rng.integers(0, OWNED_PAGES + 40)), *span))
        elif roll < 0.80:
            steps.append(("read", int(rng.integers(0, OWNED_PAGES + 100)), *span))
        elif roll < 0.93:
            steps.append(("tick", float(rng.choice([0.0, 60.0, 400.0, 5000.0]))))
        elif roll < 0.97:
            steps.append(("offline", int(rng.integers(0, 5)), bool(rng.random() < 0.5)))
        elif roll < 0.98:
            steps.append(("trim",))
        else:
            steps.append((str(rng.choice(["recycle", "collect"])), int(rng.integers(0, 3))))
    dry = []

    def setup(twin: SpanTwin) -> None:
        _churned(OWNED_PAGES - 40)(twin)
        if twin.per_page:
            return
        own = twin.ftl.own_region
        frontier_block = own.frontier_block

        def counting(channel_id, writer):
            block = frontier_block(channel_id, writer)
            if block is None and not twin.ftl._in_gc:
                dry.append(channel_id)
            return block

        own.frontier_block = counting

    fast = SpanTwin(False, True)
    ref = SpanTwin(True, True)
    for twin in (fast, ref):
        setup(twin)
    # Whether a span's first page was already placed when the least-busy
    # heap was first built: eligible slots that ran out mid-span.
    first_page: list = []
    ran_out_mid_span = []
    write_span, fallback_heap = fast.ftl.write_span, fast.ftl._fallback_heap

    def tracking_span(lpn, num_pages, front=False):
        first_page[:] = [lpn, fast.ftl.page_location(lpn)]
        return write_span(lpn, num_pages, front=front)

    def tracking_heap(now):
        lpn, before = first_page
        ran_out_mid_span.append(fast.ftl.page_location(lpn) != before)
        return fallback_heap(now)

    fast.ftl.write_span = tracking_span
    fast.ftl._fallback_heap = tracking_heap
    stats = fast.ftl.stats
    urgent_runs = []
    urgent_gc = fast.ftl._urgent_gc
    fast.ftl._urgent_gc = lambda: urgent_runs.append(stats.host_writes) or urgent_gc()
    cut_short = 0
    for step in steps:
        before = stats.host_writes
        outcome = _step_both(fast, ref, step)
        if outcome[0] == "OutOfSpaceError" and step[0] == "write":
            cut_short += 0 < stats.host_writes - before < step[2]
    assert stats.gc_runs > 0 and stats.unmapped_reads > 0
    assert dry  # a host write found an own channel dry
    assert urgent_runs  # ... and some of those went on to urgent GC
    assert cut_short  # out of space with part of the span already placed
    assert any(ran_out_mid_span)  # round-robin pages, then least-busy ones
