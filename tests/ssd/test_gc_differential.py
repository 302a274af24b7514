"""Differential suite: fused GC copy-back vs the per-page oracle.

``VssdFtl._relocate`` runs a victim's valid pages against the block and
channel columns in one pass; the per-page loop it replaced lives on in
``gc_oracle.py``.  Twin FTLs take the same operations — host writes (which
trigger threshold GC, harvest-region recycling and urgent GC on their
own), clock advances, and explicit ``run_gc`` / ``_urgent_gc`` /
``recycle_region`` / ``collect_blocks`` calls — one collecting through
each, and every operation must return or raise the same thing and leave
*everything* mutable equal: ``_ftl_state`` (block columns, page matrix,
L2P, region deque orders and versions, stats, and the float *bits* of
``bus_busy``, ``chip_busy`` and ``ChannelStats.busy_us``) plus the
channels' GC flags, the scheduled-event count, the HBT and the blocks
released to their home.  Example counts come from the active hypothesis
profile (``--hypothesis-profile ci`` in CI: derandomized, 300 examples).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.ssd.region import WriteRegion
from repro.ssd.geometry import BlockState
from repro.ssd.hbt import HarvestedBlockTable
from tests.ssd.gc_oracle import use_per_page_gc
from tests.test_hotpath_equivalence import _bits, _ftl_state

# 5 channels x 2 chips x 6 blocks x 8 pages.  The FTL owns channels 0-2
# (36 blocks, 288 pages); channels 3 and 4 donate harvest regions.
OWN_CHANNELS = (0, 1, 2)
OWNED_PAGES = 288
PAGES_PER_BLOCK = 8


class Twin:
    """One FTL, its harvest regions, and the blocks they released."""

    def __init__(self, per_page_gc: bool, harvest: bool, **config_overrides) -> None:
        config = SSDConfig(
            num_channels=5, chips_per_channel=2, blocks_per_chip=6,
            pages_per_block=PAGES_PER_BLOCK, min_superblock_blocks=2,
            **config_overrides,
        )
        self.sim = Simulator()
        self.ssd = Ssd(config, self.sim)
        self.ftl = VssdFtl(0, self.ssd, hbt=HarvestedBlockTable())
        self.ftl.adopt_blocks(self.ssd.allocate_channels(0, OWN_CHANNELS))
        self.per_page_gc = per_page_gc
        if per_page_gc:
            use_per_page_gc(self.ftl)
        self.released: list = []
        self.regions: list = []
        if harvest:
            # Channel 3 carries a bandwidth- and a capacity-purpose gSB
            # side by side; channel 4 one that a "reclaim" step flips.
            shared = self.ssd.allocate_channels(9, [3])
            late = self.ssd.allocate_channels(9, [4])
            for name, purpose, blocks in (
                ("gsb:bw", "bandwidth", shared[:4]),
                ("gsb:cap", "capacity", shared[4:8]),
                ("gsb:late", "bandwidth", late[:4]),
            ):
                region = WriteRegion(
                    name, kind="harvest", purpose=purpose, max_open_per_channel=2,
                    on_block_released=lambda block: self.released.append(block.gid),
                )
                self.ftl.hbt.mark_many(blocks)
                region.add_blocks(blocks)
                self.ftl.add_harvest_region(region)
                self.regions.append((region, blocks))

    def apply(self, step: tuple):
        ftl = self.ftl
        kind = step[0]
        if kind == "write":
            return ftl.write_span(step[1], step[2], front=step[3])
        if kind == "tick":
            self.sim.now += step[1]
            return None
        if kind == "gc":
            return ftl.run_gc(step[1])
        if kind == "urgent":
            return ftl._urgent_gc()
        if not self.regions:
            return None
        region, blocks = self.regions[step[1]]
        if kind == "recycle":
            return ftl.recycle_region(region, blocks[0].channel_id)
        if kind == "reclaim":
            region.reclaiming = True
        # What GsbManager.pump_reclaims collects: OPEN blocks included.
        pending = [b for b in blocks if not b.is_free and b.writer == ftl.vssd_id]
        return ftl.collect_blocks(pending, region)

    def state(self) -> dict:
        state = _ftl_state(self.ftl)
        state["channel_gc"] = [
            (channel.in_gc, _bits([channel._gc_until])) for channel in self.ssd.channels
        ]
        state["pending_events"] = self.sim.pending_events
        state["hbt"] = sorted(self.ftl.hbt._harvested)
        state["released"] = list(self.released)
        state["in_gc"] = self.ftl._in_gc
        return state


def _outcome(twin: Twin, step: tuple):
    try:
        return "ok", twin.apply(step)
    except (RuntimeError, ValueError) as exc:  # OutOfSpaceError included
        return type(exc).__name__, str(exc)


def _check(steps, harvest=False, setup=lambda twin: None, **config_overrides):
    """Run ``steps`` on both twins; returns them and the outcomes."""
    fast = Twin(False, harvest, **config_overrides)
    ref = Twin(True, harvest, **config_overrides)
    outcomes = []
    for twin in (fast, ref):
        setup(twin)
    for step in steps:
        got, want = _outcome(fast, step), _outcome(ref, step)
        assert got == want, step
        outcomes.append(got)
    assert fast.state() == ref.state()
    return fast, ref, outcomes


def _steps(working_set: int, max_size: int = 40):
    """Host writes inside ``working_set`` interleaved with clock advances
    (so bus horizons drain unevenly) and explicit collections."""
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("write"), st.integers(0, working_set - 1),
                st.integers(1, 16), st.booleans(),
            ),
            st.tuples(st.just("tick"), st.sampled_from([0.0, 60.0, 400.0, 5000.0])),
            st.tuples(st.just("gc"), st.sampled_from(OWN_CHANNELS)),
            st.tuples(st.just("urgent")),
            st.tuples(st.sampled_from(["recycle", "collect", "reclaim"]), st.integers(0, 2)),
        ),
        max_size=max_size,
    )


def _churned(fill: int):
    """Warm ``fill`` unique pages, then overwrite a third of them so FULL
    blocks hold invalid pages before the drawn steps start."""
    def setup(twin: Twin) -> None:
        twin.ftl.warm_fill(range(fill))
        twin.ftl.warm_fill(range(0, fill, 3))

    return setup


def _fill_own(twin: Twin, pages: int) -> None:
    """Warm ``pages`` unique LPNs into the own region only."""
    offline = twin.ftl._arrays.offline
    offline[3] = offline[4] = True
    twin.ftl.warm_fill(range(pages))
    offline[3] = offline[4] = False


@settings(deadline=None)
@given(steps=_steps(160))
def test_threshold_and_urgent_gc(steps):
    _check(steps, setup=_churned(160))


@settings(deadline=None)
@given(steps=_steps(200))
def test_recycle_and_collect_on_bandwidth_capacity_and_reclaiming_regions(steps):
    _check(steps, harvest=True, setup=_churned(200))


@settings(deadline=None)
@given(steps=_steps(160), channel=st.sampled_from(OWN_CHANNELS))
def test_one_channel_offline(steps, channel):
    def setup(twin: Twin) -> None:
        _churned(160)(twin)
        twin.ssd.channels[channel].set_fault(offline=True)

    _check(steps, setup=setup)


@settings(deadline=None)
@given(
    steps=_steps(160), channel=st.sampled_from(OWN_CHANNELS),
    slowdown=st.sampled_from([1.0, 1.7, 6.0]), extra=st.sampled_from([0.0, 35.5]),
)
def test_one_channel_slowed(steps, channel, slowdown, extra):
    def setup(twin: Twin) -> None:
        _churned(160)(twin)
        twin.ssd.channels[channel].set_fault(slowdown=slowdown, extra_latency_us=extra)

    _check(steps, harvest=True, setup=setup)


@settings(deadline=None)
@given(steps=_steps(160), wear=st.lists(st.integers(0, 9), min_size=60, max_size=60))
def test_wear_aware_allocation(steps, wear):
    def setup(twin: Twin) -> None:
        twin.ftl._store.erase_count[:] = wear
        _churned(160)(twin)

    _check(steps, setup=setup, wear_aware_allocation=True)


@settings(deadline=None)
@given(steps=_steps(OWNED_PAGES + 40, max_size=60), harvest=st.booleans())
def test_nearly_full_device(steps, harvest):
    """Own channels run dry mid-relocation and victims meet out-of-space."""
    _check(steps, harvest=harvest, setup=_churned(OWNED_PAGES - 40))


# -- directed cases: each names one rule and shows the suite reaches it ----

def _own_full_block(twin: Twin, channel_id: int, invalidate: int):
    """A FULL block on ``channel_id`` with its first pages overwritten."""
    victim = next(
        block for block in twin.ssd.channels[channel_id].blocks
        if block.state is BlockState.FULL and block.valid_count == PAGES_PER_BLOCK
    )
    twin.ftl.warm_fill([lpn for _page, lpn in victim.valid_lpns()[:invalidate]])
    return victim


def test_copy_back_takes_the_least_busy_own_channel_ties_to_the_lowest_id():
    fast, ref, _ = _check([], setup=lambda twin: twin.ftl.warm_fill(range(120)))
    for twin in (fast, ref):
        victim = _own_full_block(twin, 0, invalidate=2)
        lpns = [lpn for _page, lpn in victim.valid_lpns()]
        twin.ftl._arrays.bus_busy[1] = twin.sim.now + 150.0  # one GC transfer is 120 us
        twin.ftl.collect_blocks([victim], twin.ftl.own_region)
        landed = [twin.ftl.page_location(lpn).block.channel_id for lpn in lpns[:5]]
        # Horizons (0, 150, 0) -> 0; (120, 150, 0) -> 2; (120, 150, 120)
        # -> 0 on the tie; (240, 150, 120) -> 2; (240, 150, 240) -> 1.
        assert landed == [0, 2, 0, 2, 1]
    assert fast.state() == ref.state()


def test_an_own_channel_that_runs_dry_mid_relocation_falls_through():
    def setup(twin: Twin) -> None:
        ftl = twin.ftl
        ftl.warm_fill(range(120))
        twin.victim = _own_full_block(twin, 1, invalidate=3)
        # Leave channel 0 one programmable page and no free block, and
        # keep it the least busy by far.
        ftl.surrender_free_blocks(0, 100)
        offline = ftl._arrays.offline
        offline[1] = offline[2] = True
        room = sum(block.free_pages for block in ftl.own_region._open[0])
        ftl.warm_fill(range(1000, 1000 + room - 1))
        offline[1] = offline[2] = False
        ftl._arrays.bus_busy[1] = ftl._arrays.bus_busy[2] = twin.sim.now + 1e6

    fast, ref, _ = _check([], setup=setup)
    for twin in (fast, ref):
        own = twin.ftl.own_region
        victim = twin.victim
        lpns = [lpn for _page, lpn in victim.valid_lpns()]
        version = own.version
        assert twin.ftl.collect_blocks([victim], own) == 1
        landed = [twin.ftl.page_location(lpn).block.channel_id for lpn in lpns]
        assert landed[0] == 0 and 0 not in landed[1:]
        assert not own.can_write(0)
        # One bump for the exhausted channel, one for the re-added victim.
        assert own.version == version + 2
    assert fast.state() == ref.state()


def test_a_victim_that_meets_out_of_space_raises_after_the_same_pages():
    fast, ref, _ = _check(
        [], harvest=True, setup=lambda twin: _fill_own(twin, OWNED_PAGES - 3)
    )
    for twin in (fast, ref):
        offline = twin.ftl._arrays.offline
        offline[0] = offline[1] = offline[2] = True  # keep the three own pages
        twin.ftl.write_span(5000, 20)
        offline[0] = offline[1] = offline[2] = False
        assert _outcome(twin, ("collect", 0)) == (
            "OutOfSpaceError", "vSSD 0: no programmable block available"
        )
        assert twin.ftl.stats.gc_writes == 3
    assert fast.state() == ref.state()


def test_capacity_region_compacts_in_place_or_bails_out_when_too_full():
    def setup(twin: Twin) -> None:
        # Host writes can only go to the capacity gSB (4 blocks, 2 open).
        _fill_own(twin, OWNED_PAGES)
        for region, _blocks in (twin.regions[0], twin.regions[2]):
            twin.ftl.remove_harvest_region(region)

    # Two passes fill the first two blocks half-valid; the third opens the
    # last two, which triggers recycling: compaction inside the region.
    fast, ref, _ = _check([("write", 6000, 8, False)] * 3, harvest=True, setup=setup)
    _region, blocks = fast.regions[1]
    assert fast.ftl.stats.gc_writes == ref.ftl.stats.gc_writes > 0
    assert all(fast.ftl.page_location(lpn).block in blocks for lpn in range(6000, 6008))
    # All four blocks full, one page of one block invalid: seven pages to
    # move and nowhere inside the region to put them.
    steps = [("write", 6000, 16, False), ("write", 6016, 15, False), ("write", 6000, 1, False)]
    fast, ref, outcomes = _check(steps + [("recycle", 1)], harvest=True, setup=setup)
    _region, blocks = fast.regions[1]
    assert sorted(block.valid_count for block in blocks) == [7, 8, 8, 8]
    assert all(block.state is BlockState.FULL for block in blocks)
    assert outcomes[-1] == ("ok", 0)
    assert fast.ftl.stats.blocks_erased == 0


def test_collect_blocks_takes_open_victims_of_a_reclaiming_region():
    steps = [("write", 300, 20, False), ("reclaim", 2)]
    fast, ref, outcomes = _check(steps, harvest=True, setup=_churned(120))
    region, blocks = fast.regions[2]
    assert outcomes[-1][0] == "ok" and outcomes[-1][1] > 0
    assert fast.released and all(block.is_free for block in blocks)
    assert not any(region._open.values())


def test_the_drawn_steps_reach_every_collection_entry_point():
    """A fixed long run: the hypothesis budget above is not what decides
    whether exhaustion, out-of-space and recycling are exercised at all.
    (A device this small wedges after a few hundred steps — no free page
    left to copy even one victim page into — and every later write fails
    alike on both twins, so longer runs add nothing.)"""
    rng = np.random.default_rng(7)
    steps = []
    for _ in range(600):
        roll = rng.random()
        if roll < 0.8:
            steps.append(
                ("write", int(rng.integers(0, 160)), int(rng.integers(1, 17)),
                 bool(rng.random() < 0.2))
            )
        elif roll < 0.95:
            steps.append(("tick", float(rng.choice([0.0, 60.0, 400.0, 5000.0]))))
        else:
            steps.append((str(rng.choice(["recycle", "collect"])), int(rng.integers(0, 3))))
    dry = []

    def setup(twin: Twin) -> None:
        _churned(160)(twin)
        if twin.per_page_gc:
            return
        own = twin.ftl.own_region
        frontier_block = own.frontier_block

        def counting(channel_id, writer):
            block = frontier_block(channel_id, writer)
            if block is None and twin.ftl._in_gc:
                dry.append(channel_id)
            return block

        own.frontier_block = counting

    fast, _ref, outcomes = _check(steps, harvest=True, setup=setup)
    stats = fast.ftl.stats
    assert stats.gc_runs > 50 and stats.gc_writes > 500
    assert dry  # an own channel ran dry under GC
    assert any(kind == "OutOfSpaceError" for kind, _ in outcomes)
    for kind in ("recycle", "collect"):  # some of each erased something
        assert any(
            outcome[0] == "ok" and outcome[1]
            for step, outcome in zip(steps, outcomes) if step[0] == kind
        )
