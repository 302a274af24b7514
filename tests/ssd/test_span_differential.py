"""Differential suite: the fused host spans vs the per-page oracle.

``VssdFtl.write_span`` / ``read_span`` are the only way a host page
reaches flash in ``src/``; the ``write_page`` / ``read_page`` route they
replaced lives on in ``span_oracle.py``, composed from the object API.
Twin FTLs (the :class:`Twin` device of ``test_gc_differential.py``: own
channels 0-2, a bandwidth- and a capacity-purpose harvest region sharing
channel 3, one on channel 4 that a step flips to reclaiming) take the same
requests, one through the spans and one through the oracle, and after
*every* step the return value or exception — completion-time bits and
``pages_by_channel`` in insertion order — and everything mutable must be
equal: ``Twin.state`` plus each channel's unmapped-read chip turn.  Both
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
from tests.ssd.test_gc_differential import OWNED_PAGES, Twin, _churned, _fill_own
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
        done, pages_by_channel = result
        return "ok", _bits([done]), list(pages_by_channel.items())
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
    fast, _ref, outcomes = _check(
        [("write", 0, 2, False), ("write", 2, 5, False)],
        setup=lambda twin: twin.ftl.warm_fill(range(1)),
    )
    # One warm page took channel 0; the spans carry on from channel 1.
    assert [channel for channel, _ in outcomes[0][2]] == [1, 2]
    assert outcomes[1][2] == [(0, 2), (1, 2), (2, 1)]
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


def test_unmapped_reads_rotate_own_channels_and_chips_and_ignore_front():
    def setup(twin: SpanTwin) -> None:
        twin.ftl._arrays.bus_busy[0] = twin.sim.now + 2400.0  # a backlog to jump

    fast, _ref, outcomes = _check(
        [("read", 500, 7, True)], harvest=True, setup=setup
    )
    assert outcomes[0][2] == [(0, 3), (1, 2), (2, 2)]  # never channel 3 or 4
    assert fast.ftl.stats.unmapped_reads == 7
    assert [channel._next_write_chip for channel in fast.ssd.channels] == [1, 0, 0, 0, 0]
    # At normal priority the three reads on channel 0 queue behind the
    # backlog; ``front`` would have finished them inside it.
    assert fast.ftl._arrays.bus_busy[0] == fast.sim.now + 2400.0 + 3 * 240.0


def test_a_span_that_runs_out_of_space_keeps_the_pages_it_placed():
    steps = [("write", 5000, 20, False)]
    fast, ref, outcomes = _check(steps, setup=lambda twin: _fill_own(twin, OWNED_PAGES - 3))
    assert outcomes == [("OutOfSpaceError", "vSSD 0: no programmable block available")]
    for twin in (fast, ref):
        assert twin.ftl.stats.host_writes == 3
        assert twin.ftl.mapped_pages() == OWNED_PAGES
        assert len(twin.ftl._l2p_gid) == 5020


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
