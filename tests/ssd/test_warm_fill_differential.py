"""Differential suite: bulk ``VssdFtl.warm_fill`` vs the per-page oracle.

``warm_fill`` places whole striping epochs as column scatters; the loop it
replaced lives on in ``warm_fill_oracle.py``.  Twin FTLs are put in the
same state, one is filled by each, and *everything* mutable must agree
afterwards: block columns, the page->LPN matrix, the L2P lists, region
free/open deque orders, ``_free_pages``, ``_write_rr``, versions, stats.
A fill that cannot finish must fail on both with the same error after the
same pages.  Example counts come from the active hypothesis profile
(``--hypothesis-profile ci`` in CI: derandomized, 300 examples).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ssd.ftl import OutOfSpaceError
from repro.ssd.region import WriteRegion
from tests.ssd.warm_fill_oracle import warm_fill_per_page
from tests.test_hotpath_equivalence import _ftl_state, _twin_ftls

# The twin device owns channels 0-1: 2 channels x 2 chips x 8 blocks x 16
# pages = 512 pages.  LPNs range past that so maps grow with gaps.
OWNED_PAGES = 512
lpn_lists = st.lists(st.integers(0, 700), max_size=400)
wrapping_fills = st.builds(
    lambda pages, working_set: [lpn % working_set for lpn in range(pages)],
    st.integers(0, 900), st.integers(1, 300),
)
fills = st.lists(lpn_lists | wrapping_fills, min_size=1, max_size=3)
#: (lpn, num_pages) host writes and per-channel GC passes run on both
#: twins first, leaving open blocks with unequal write pointers.
preludes = st.lists(
    st.tuples(st.integers(0, 150), st.integers(1, 12)) | st.sampled_from([0, 1]),
    max_size=14,
)


def _apply_prelude(ftl, prelude) -> None:
    for step in prelude:
        if isinstance(step, tuple):
            ftl.write_span(*step)
        else:
            ftl.run_gc(step)


def _attach_harvest_regions(ftl) -> None:
    """A live gSB on channel 2 and a reclaiming one on channel 3."""
    for channel_id, reclaiming in ((2, False), (3, True)):
        donated = ftl.ssd.allocate_channels(9, [channel_id])[:3]
        region = WriteRegion(f"gsb:{channel_id}", kind="harvest", max_open_per_channel=2)
        for block in donated:
            ftl.hbt.mark_harvested(block)
        region.add_blocks(donated)
        region.reclaiming = reclaiming
        ftl.add_harvest_region(region)


def _push_past_bound(ftl, channels) -> None:
    for channel_id in channels:
        ftl._arrays.bus_busy[channel_id] = (
            ftl.ssd.sim.now + ftl._qd_bound_us + 1.0 + channel_id
        )


def _fill_both(fast, ref, lpns):
    outcomes = []
    for fill in (fast.warm_fill, lambda pages: warm_fill_per_page(ref, pages)):
        try:
            outcomes.append(("ok", fill(list(lpns))))
        except OutOfSpaceError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert outcomes[0] == outcomes[1]
    assert _ftl_state(fast) == _ftl_state(ref)
    # Equal is not enough: a numpy scalar in a list column compares equal
    # and then leaks into snapshots and arithmetic.
    store = fast._store
    for column in (fast._l2p_gid, fast._l2p_page, store.write_ptr, store.valid_count):
        assert {type(value) for value in column} <= {int}
    return outcomes[0]


def _check(fill_lists, setup=lambda ftl: None, **config_overrides):
    (_, fast), (_, ref) = _twin_ftls(**config_overrides)
    for ftl in (fast, ref):
        setup(ftl)
    return [_fill_both(fast, ref, lpns) for lpns in fill_lists]


@settings(deadline=None)
@given(fill_lists=fills)
def test_lpn_lists_with_repeats_and_gaps(fill_lists):
    _check(fill_lists)


@settings(deadline=None)
@given(prelude=preludes, fill_lists=fills)
def test_existing_mappings_with_uneven_write_pointers(prelude, fill_lists):
    _check(fill_lists, lambda ftl: _apply_prelude(ftl, prelude))


@settings(deadline=None)
@given(prelude=preludes, fill_lists=fills)
def test_one_channel_offline(prelude, fill_lists):
    def setup(ftl):
        _apply_prelude(ftl, prelude)
        ftl._arrays.offline[1] = True

    _check(fill_lists, setup)


@settings(deadline=None)
@given(prelude=preludes, fill_lists=fills)
def test_one_channel_past_the_queue_depth_bound(prelude, fill_lists):
    def setup(ftl):
        _apply_prelude(ftl, prelude)
        _push_past_bound(ftl, [0])

    _check(fill_lists, setup)


@settings(deadline=None)
@given(prelude=preludes, fill_lists=fills)
def test_every_channel_past_the_bound_takes_the_least_busy(prelude, fill_lists):
    """No eligible slot: every page goes to the least-busy one and
    ``_write_rr`` moves by one per page."""
    def setup(ftl):
        _apply_prelude(ftl, prelude)
        _push_past_bound(ftl, range(4))

    _check(fill_lists, setup)


@settings(deadline=None)
@given(prelude=preludes, fill_lists=fills, busy=st.booleans())
def test_live_and_reclaiming_harvest_regions(prelude, fill_lists, busy):
    def setup(ftl):
        _attach_harvest_regions(ftl)
        _apply_prelude(ftl, prelude)
        if busy:
            _push_past_bound(ftl, [1])

    _check(fill_lists, setup)


@settings(deadline=None)
@given(
    prelude=preludes, fill_lists=fills,
    wear=st.lists(st.integers(0, 9), min_size=64, max_size=64),
)
def test_wear_aware_allocation(prelude, fill_lists, wear):
    def setup(ftl):
        ftl._store.erase_count[:] = wear
        _apply_prelude(ftl, prelude)

    _check(fill_lists, setup, wear_aware_allocation=True)


@settings(deadline=None)
@given(
    pages=st.integers(OWNED_PAGES - 40, 3 * OWNED_PAGES),
    working_set=st.integers(1, OWNED_PAGES + 60),
    harvest=st.booleans(),
)
def test_fill_that_runs_out_of_blocks(pages, working_set, harvest):
    """Past capacity both twins reach urgent GC, or fail, on the same page."""
    _check(
        [[lpn % working_set for lpn in range(pages)]],
        _attach_harvest_regions if harvest else lambda ftl: None,
    )


def test_overwrites_past_capacity_reach_urgent_gc():
    (_, fast), (_, ref) = _twin_ftls()
    lpns = [lpn % 200 for lpn in range(3 * OWNED_PAGES)]
    assert _fill_both(fast, ref, lpns) == ("ok", len(lpns))
    assert ref.stats.gc_runs > 0 and ref.stats.blocks_erased > 0


def test_unique_lpns_past_capacity_raise_out_of_space_on_the_same_page():
    (_, fast), (_, ref) = _twin_ftls()
    outcome = _fill_both(fast, ref, range(OWNED_PAGES + 50))
    assert outcome[0] == "OutOfSpaceError"
    assert fast.mapped_pages() == ref.mapped_pages() == OWNED_PAGES


def test_generator_input_and_empty_input():
    (_, fast), (_, ref) = _twin_ftls()
    assert fast.warm_fill(lpn % 40 for lpn in range(100)) == 100
    assert warm_fill_per_page(ref, (lpn % 40 for lpn in range(100))) == 100
    assert fast.warm_fill([]) == 0
    assert _ftl_state(fast) == _ftl_state(ref)
