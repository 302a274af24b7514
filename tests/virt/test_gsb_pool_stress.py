"""Stress/property tests for the gSB pool under random operations, and
for gSB block ownership across a whole virtualizer."""

from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.ssd import BlockState
from repro.ssd.ftl import OutOfSpaceError
from repro.virt import StorageVirtualizer
from repro.virt.gsb import GhostSuperblock, GsbPool


def _gsb(n_chls, home, counter=[0]):
    counter[0] += 1
    blocks = [counter[0] * 100 + i for i in range(2)]
    return GhostSuperblock(
        n_chls=n_chls, blocks=blocks, home_vssd=home, blocks_per_channel=1 << 30
    )


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "acquire", "remove"]),
            st.integers(1, 8),   # size of gSB / request
            st.integers(0, 3),   # home / requester id
        ),
        min_size=1,
        max_size=60,
    )
)
def test_pool_conserves_gsbs(ops):
    """gSBs never duplicate or vanish: pooled + acquired + removed ==
    inserted, each block gid belongs to one gSB, and an acquired gSB is
    never one of the requester's own."""
    pool = GsbPool(max_channels=8)
    pooled: list = []
    acquired: list = []
    removed: list = []
    inserted = 0
    for op, size, who in ops:
        if op == "insert":
            gsb = _gsb(size, home=who)
            pool.insert(gsb)
            pooled.append(gsb)
            inserted += 1
        elif op == "acquire":
            got = pool.acquire(size, exclude_home=who)
            if got is not None:
                assert got.home_vssd != who
                assert got in pooled
                pooled.remove(got)
                acquired.append(got)
        else:
            if pooled:
                target = pooled[len(pooled) % max(len(pooled), 1) - 1]
                assert pool.remove(target)
                pooled.remove(target)
                removed.append(target)
        assert pool.available() == len(pooled)
        assert len(pooled) + len(acquired) + len(removed) == inserted
        # Block gids move only with their gSB: none is in two gSBs.
        gids = [gid for gsb in pooled + acquired + removed for gid in gsb.blocks]
        assert len(gids) == len(set(gids)) == 2 * inserted
    # Everything still pooled is acquirable by a stranger.
    for _ in range(len(pooled)):
        assert pool.acquire(1, exclude_home=99) is not None
    assert pool.acquire(1, exclude_home=99) is None


def test_acquire_exhausts_pool_exactly_once():
    pool = GsbPool(max_channels=4)
    gsbs = [_gsb(n, home=0) for n in (1, 2, 3, 4)]
    for gsb in gsbs:
        pool.insert(gsb)
    seen = set()
    for _ in range(4):
        got = pool.acquire(2, exclude_home=1)
        assert got is not None
        assert id(got) not in seen
        seen.add(id(got))
    assert pool.acquire(1, exclude_home=1) is None


# -- gSB ownership over a whole virtualizer --------------------------------

#: 4 channels x 2 chips x 8 blocks x 16 pages; gSBs take 2 blocks per channel.
OWNERSHIP_CONFIG = SSDConfig(
    num_channels=4, chips_per_channel=2, blocks_per_chip=8, pages_per_block=16,
    min_superblock_blocks=2,
)
#: Tenants 0-2 and their channels.
TENANT_CHANNELS = ([0], [1], [2, 3])
WORKING_SET = 96


def _assert_one_owner(virt: StorageVirtualizer) -> None:
    """``BlockStore.gsb_of`` is the only record of gSB membership, and
    everything else agrees with it."""
    store = virt.ssd.store
    manager = virt.gsb_manager
    # Every live gSB is on its home's list (pooled, lent, or reclaiming).
    live = {
        gsb.gsb_id: gsb
        for vssd in manager._vssd_by_id.values()
        for gsb in vssd.harvestable_gsbs
    }
    assert all(gsb.gsb_id in live for gsb in manager.pool.peek_all())
    # gsb_of[gid] >= 0 exactly when the gid is in a live gSB's blocks.
    expected = [-1] * store.n_blocks
    for gsb_id, gsb in live.items():
        for gid in gsb.blocks:
            assert expected[gid] == -1, f"gid {gid} is in two gSBs"
            expected[gid] = gsb_id
    assert store.gsb_of == expected
    tenants = list(virt.vssds.values())
    if virt.placeholder is not None:
        tenants.append(virt.placeholder)
    all_queued: list = []
    for vssd in tenants:
        ftl = vssd.ftl
        for region in [ftl.own_region] + ftl.harvest_regions:
            queued = [
                gid
                for queues in (region._free, region._open)
                for queue in queues.values()
                for gid in queue
            ]
            all_queued += queued
            assert region.take_released() == []  # every release went home
            if region is ftl.own_region:
                assert all(store.gsb_of[gid] == -1 for gid in queued)
                assert all(store.owner[gid] == vssd.vssd_id for gid in queued)
                continue
            # An installed harvest region's blocks are exactly its gSB's:
            # the queued ones plus the FULL ones it wrote.
            gsb = live[region.gsb_id]
            assert gsb.region is region and gsb.harvest_vssd == vssd.vssd_id
            members = {gid for gid, g in enumerate(store.gsb_of) if g == region.gsb_id}
            assert members == set(gsb.blocks)
            assert set(queued) <= members
            assert all(store.state[gid] is BlockState.FULL for gid in members - set(queued))
    # No gid is queued in two regions (or twice in one).
    assert len(all_queued) == len(set(all_queued))


_TENANT = st.integers(0, len(TENANT_CHANNELS) - 1)

#: Any interleaving of offers, harvests, harvester writes, reclaims,
#: watchdog releases, fault-driven reclaims, pumps, deallocations and
#: starvations.  ``("starve", tenant)`` makes that tenant's next
#: ``collect_blocks`` raise ``OutOfSpaceError`` before it relocates
#: anything, as a collection that finds no free own page does; the
#: reclaim it was pumping stays started, attached and reclaiming across
#: the rules that follow.
_RULES = st.lists(
    st.one_of(
        st.tuples(st.just("starve"), _TENANT),
        st.tuples(st.just("offer"), _TENANT, st.integers(0, 2)),
        st.tuples(st.just("harvest"), _TENANT, st.integers(1, 2)),
        st.tuples(st.just("write"), _TENANT, st.integers(0, WORKING_SET - 1),
                  st.integers(1, 32)),
        st.tuples(st.just("reclaim_excess"), _TENANT, st.integers(0, 1)),
        st.tuples(st.just("release"), _TENANT),
        st.tuples(st.just("degrade"), st.integers(0, 3), st.booleans()),
        st.tuples(st.just("pump")),
        st.tuples(st.just("deallocate"), _TENANT),
    ),
    min_size=1,
    max_size=40,
)


def _run_rules(ops, check, on_collect=None) -> StorageVirtualizer:
    """Apply ``ops`` to a fresh three-tenant virtualizer, calling
    ``check(virt)`` after every rule and, given ``on_collect``, also
    ``on_collect(virt)`` as every ``collect_blocks`` call starts.
    Returns the virtualizer."""
    virt = StorageVirtualizer(config=OWNERSHIP_CONFIG)
    tenants = [
        virt.create_vssd(f"t{index}", channels)
        for index, channels in enumerate(TENANT_CHANNELS)
    ]
    starved: set = set()  # tenants whose next collection runs out of space
    for index, vssd in enumerate(tenants):
        collect = vssd.ftl.collect_blocks

        def checked(gids, region, collect=collect, index=index):
            if on_collect is not None:
                on_collect(virt)
            if index in starved:
                starved.discard(index)
                raise OutOfSpaceError("starved: no free own page to relocate into")
            return collect(gids, region)

        vssd.ftl.collect_blocks = checked
    manager = virt.gsb_manager
    per = OWNERSHIP_CONFIG.channel_write_bandwidth_mbps
    # Start with one gSB of tenant 0's lent to tenant 2 and written to,
    # so every drawn sequence has a live harvest to reclaim.
    prelude = [("offer", 0, 1), ("harvest", 2, 1), ("write", 2, 0, 32), ("write", 2, 32, 32)]
    for op, *args in prelude + ops:
        try:
            if op == "starve":
                starved.add(args[0])
            elif op == "degrade":
                channel, on = args
                virt.ssd.channels[channel].set_fault(slowdown=3.0 if on else 1.0)
                manager.reclaim_degraded()
            elif op == "pump":
                manager.pump_reclaims()
            else:
                vssd = tenants[args[0]]
                if vssd.deallocated:
                    continue
                if op == "offer":
                    manager.make_harvestable(vssd, args[1] * per + 1)
                elif op == "harvest":
                    manager.harvest(vssd, args[1] * per + 1)
                elif op == "write":
                    vssd.ftl.write_span(args[1], min(args[2], WORKING_SET - args[1]))
                elif op == "reclaim_excess":
                    manager.reclaim_excess(vssd, args[1])
                elif op == "release":
                    manager.release_harvested(vssd)
                else:
                    virt.deallocate_vssd(vssd.vssd_id)
        except OutOfSpaceError:
            pass  # a collection may die part-way; ownership must still add up
        check(virt)
    return virt


@settings(deadline=None)
@given(ops=_RULES)
def test_gsb_ownership_is_one_column(ops):
    """After any interleaving of offers, harvests, harvester writes,
    reclaims, watchdog releases, fault-driven reclaims, pumps and
    deallocations, the gSBs, the regions and ``gsb_of`` agree."""
    _run_rules(ops, _assert_one_owner)


def recounted_channels(ftl) -> int:
    """``channel_count`` recounted from the regions: own plus live-harvest
    channels, at least 1."""
    count = len(ftl.own_region._channels) + sum(
        len(region._channels) for region in ftl.harvest_regions if not region.reclaiming
    )
    return max(count, 1)


def _assert_channel_counts(virt: StorageVirtualizer) -> None:
    for vssd in virt.vssds.values():
        assert vssd.ftl.channel_count() == recounted_channels(vssd.ftl), vssd.name


@settings(deadline=None)
@given(ops=_RULES)
def test_channel_count_is_a_fresh_recount_after_every_rule(ops):
    """The count the dispatcher's admission gate reads is kept, not
    recomputed; after every rule it equals a recount, and so it does
    as a lazy reclaim starts collecting (its region just flipped)."""
    _run_rules(ops, _assert_channel_counts, on_collect=_assert_channel_counts)


def _assert_consistent(virt: StorageVirtualizer) -> None:
    _assert_one_owner(virt)
    _assert_channel_counts(virt)


def test_a_starved_reclaim_stays_open_until_a_later_pump():
    """Tenant 2 releases the gSB it harvested, but its first collection
    starves: after the rule the reclaim is still started, attached and
    reclaiming, and a later pump returns every block home."""
    virt = _run_rules([("starve", 2), ("release", 2)], _assert_consistent)
    manager = virt.gsb_manager
    (gsb,) = manager.reclaiming_gsbs()
    harvester = virt.vssds[gsb.harvest_vssd]
    home = virt.vssds[gsb.home_vssd]
    assert gsb.reclaiming and gsb.region.reclaiming
    assert gsb.region in harvester.ftl.harvest_regions
    assert gsb in harvester.harvested_gsbs and gsb in home.harvestable_gsbs
    lent = list(gsb.blocks)
    assert lent, "the starved reclaim has written blocks still to collect"
    store = virt.ssd.store
    assert all(store.gsb_of[gid] == gsb.gsb_id for gid in lent)

    assert manager.pump_reclaims() > 0
    assert manager.reclaiming_gsbs() == []
    assert gsb.blocks == []
    assert gsb.region not in harvester.ftl.harvest_regions
    assert gsb not in harvester.harvested_gsbs and gsb not in home.harvestable_gsbs
    assert all(store.gsb_of[gid] == -1 for gid in lent)
    assert all(store.owner[gid] == home.vssd_id for gid in lent)
    _assert_consistent(virt)
