"""Tests for the storage virtualizer: vSSD lifecycle, placeholder."""

import pytest

from repro.sched.policies import TokenBucketStridePolicy
from repro.ssd import BlockState
from repro.virt import PLACEHOLDER_VSSD_ID, StorageVirtualizer


@pytest.fixture
def virt(small_config):
    return StorageVirtualizer(config=small_config)


def test_hardware_vssd_owns_whole_channels(virt, small_config):
    vssd = virt.create_vssd("a", [0, 1])
    owned = sum(vssd.ftl._own_blocks_per_channel.values())
    assert owned == 2 * small_config.blocks_per_channel
    assert vssd.isolation == "hardware"


def test_software_vssds_share_channels(virt, small_config):
    half = small_config.blocks_per_channel // 2
    a = virt.create_vssd("a", [0, 1, 2, 3], isolation="software", blocks_per_channel=half)
    b = virt.create_vssd("b", [0, 1, 2, 3], isolation="software", blocks_per_channel=half)
    assert set(a.ftl._own_blocks_per_channel) == {0, 1, 2, 3}
    assert set(b.ftl._own_blocks_per_channel) == {0, 1, 2, 3}


def test_software_requires_block_count(virt):
    with pytest.raises(ValueError):
        virt.create_vssd("a", [0], isolation="software")


def test_exhausted_channels_rejected(virt):
    virt.create_vssd("a", [0, 1])
    with pytest.raises(ValueError):
        virt.create_vssd("b", [0, 1])


def test_vssd_by_name(virt):
    virt.create_vssd("alpha", [0])
    assert virt.vssd_by_name("alpha").name == "alpha"
    with pytest.raises(KeyError):
        virt.vssd_by_name("missing")


def test_deallocation_moves_blocks_to_placeholder(virt, small_config):
    vssd = virt.create_vssd("a", [0, 1])
    vssd.ftl.warm_fill(range(100))
    virt.deallocate_vssd(vssd.vssd_id)
    placeholder = virt.placeholder
    assert placeholder is not None
    owned = sum(placeholder.ftl._own_blocks_per_channel.values())
    assert owned == 2 * small_config.blocks_per_channel
    # All data was erased before the transfer (security, Section 5).
    store = virt.ssd.store
    for channel_id in (0, 1):
        for gid in virt.ssd.channel_gids(channel_id):
            assert store.state[gid] is BlockState.FREE
            assert store.owner[gid] == placeholder.vssd_id


def test_deallocated_capacity_is_harvestable(virt, small_config):
    vssd = virt.create_vssd("a", [0, 1])
    survivor = virt.create_vssd("b", [2, 3])
    virt.deallocate_vssd(vssd.vssd_id)
    virt.offer_placeholder_capacity()
    assert virt.gsb_manager.pool.available() > 0
    per = small_config.channel_write_bandwidth_mbps
    gsb = virt.gsb_manager.harvest(survivor, per + 1)
    assert gsb is not None
    assert gsb.home_vssd == PLACEHOLDER_VSSD_ID


def test_deallocate_unknown_raises(virt):
    with pytest.raises(KeyError):
        virt.deallocate_vssd(42)


def test_priority_routed_to_policy(virt):
    from repro.sched.request import Priority
    from repro.virt.actions import SetPriorityAction

    vssd = virt.create_vssd("a", [0])
    virt.admission.submit(SetPriorityAction(vssd.vssd_id, Priority.LOW))
    assert virt.policy.get_priority(vssd.vssd_id) is Priority.LOW


def test_custom_scheduling_policy(small_config):
    policy = TokenBucketStridePolicy(rate_bytes_per_us=1000.0, burst_bytes=1 << 20)
    virt = StorageVirtualizer(config=small_config, policy=policy)
    virt.create_vssd("a", [0])
    assert virt.dispatcher.policy is policy


# -- deallocating a vSSD that lends or harvests gSBs ---------------------

def _queued(ftl):
    """Every gid queued in ``ftl``'s own and harvest regions."""
    return [
        gid
        for region in [ftl.own_region] + ftl.harvest_regions
        for queues in (region._free, region._open)
        for queue in queues.values()
        for gid in queue
    ]


def _lend_and_harvest(virt, small_config, write=True):
    home = virt.create_vssd("home", [0, 1])
    harvester = virt.create_vssd("harvester", [2, 3])
    bw = small_config.channel_write_bandwidth_mbps + 1
    gsb = virt.gsb_manager.make_harvestable(home, bw)
    assert gsb is not None
    lpns = list(range(5000, 5000 + 4 * small_config.pages_per_block))
    if write:
        assert virt.gsb_manager.harvest(harvester, bw) is gsb
        for lpn in lpns:
            harvester.ftl.write_span(lpn, 1)
        store = virt.ssd.store
        assert any(store.writer[gid] == harvester.vssd_id for gid in gsb.blocks)
    return home, harvester, gsb, lpns


def test_deallocating_a_home_with_a_pooled_gsb_takes_it_back(virt, small_config):
    home, harvester, gsb, _lpns = _lend_and_harvest(virt, small_config, write=False)
    blocks = list(gsb.blocks)
    virt.deallocate_vssd(home.vssd_id)
    store = virt.ssd.store
    assert virt.gsb_manager.pool.available() == 0
    assert all(store.gsb_of[gid] == -1 for gid in blocks)
    assert all(store.owner[gid] == PLACEHOLDER_VSSD_ID for gid in blocks)
    # The placeholder's capacity is offered and harvested once: no gid
    # ends up queued in two regions.
    virt.offer_placeholder_capacity()
    bw = small_config.channel_write_bandwidth_mbps + 1
    assert virt.gsb_manager.harvest(harvester, bw) is not None
    queued = _queued(virt.placeholder.ftl) + _queued(harvester.ftl)
    assert len(queued) == len(set(queued))


def test_deallocating_a_home_with_an_in_use_gsb_keeps_harvester_data(virt, small_config):
    home, harvester, gsb, lpns = _lend_and_harvest(virt, small_config)
    blocks = list(gsb.blocks)
    virt.deallocate_vssd(home.vssd_id)
    store = virt.ssd.store
    assert harvester.harvested_gsbs == [] and harvester.ftl.harvest_regions == []
    assert all(store.gsb_of[gid] == -1 for gid in blocks)
    assert all(store.owner[gid] == PLACEHOLDER_VSSD_ID for gid in blocks)
    for lpn in lpns:
        location = harvester.ftl.page_location(lpn)
        assert location is not None
        assert store.owner[location[0]] == harvester.vssd_id
        assert store.page_lpns[location] == lpn


def test_deallocating_a_harvester_sends_its_gsbs_home(virt, small_config):
    home, harvester, gsb, _lpns = _lend_and_harvest(virt, small_config)
    blocks = list(gsb.blocks)
    free_before = home.ftl.own_region.free_block_count()
    virt.deallocate_vssd(harvester.vssd_id)
    store = virt.ssd.store
    assert home.harvestable_gsbs == [] and virt.gsb_manager.reclaiming_gsbs() == []
    assert all(store.gsb_of[gid] == -1 for gid in blocks)
    assert all(store.state[gid] is BlockState.FREE for gid in blocks)
    assert home.ftl.own_region.free_block_count() == free_before + len(blocks)
    assert all(store.writer[gid] != harvester.vssd_id for gid in range(store.n_blocks))
