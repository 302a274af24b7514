"""Failure injection: capacity pressure, thrashing actions, edge configs."""

import numpy as np
import pytest

from repro.config import SSDConfig
from repro.sched import IoRequest
from repro.virt import StorageVirtualizer
from repro.virt.actions import HarvestAction, MakeHarvestableAction


@pytest.fixture
def fast_config():
    return SSDConfig(
        num_channels=4,
        chips_per_channel=2,
        blocks_per_chip=16,
        pages_per_block=32,
        min_superblock_blocks=4,
    )


def test_offer_denied_under_capacity_pressure(fast_config):
    """A vSSD close to full cannot give blocks away (the 25% floor)."""
    virt = StorageVirtualizer(config=fast_config)
    vssd = virt.create_vssd("full", [0, 1])
    pages = sum(vssd.ftl._own_blocks_per_channel.values()) * fast_config.pages_per_block
    vssd.ftl.warm_fill(range(int(pages * 0.85)))
    per = fast_config.channel_write_bandwidth_mbps
    assert virt.gsb_manager.make_harvestable(vssd, per + 1) is None


def test_action_thrash_does_not_corrupt_state(fast_config):
    """Alternating offer/reclaim/harvest every batch must keep block
    accounting consistent."""
    virt = StorageVirtualizer(config=fast_config)
    a = virt.create_vssd("a", [0, 1])
    b = virt.create_vssd("b", [2, 3])
    per = fast_config.channel_write_bandwidth_mbps
    rng = np.random.default_rng(0)
    for round_idx in range(30):
        offer_bw = float(rng.choice([1e-9, per + 1, 2 * per + 1]))
        virt.admission.submit(MakeHarvestableAction(a.vssd_id, offer_bw))
        virt.admission.submit(HarvestAction(b.vssd_id, per + 1))
        virt.admission.process_batch()
        virt.gsb_manager.pump_reclaims()
        # Writes keep landing wherever legal (working set well under
        # b's 2048-page capacity so GC always has invalid pages to free).
        for i in range(20):
            b.ftl.write_span(int(rng.integers(0, 1200)), 1)
    store = virt.ssd.store
    assert store.n_blocks == 4 * fast_config.blocks_per_channel
    assert all(owner in (a.vssd_id, b.vssd_id) for owner in store.owner)
    # Harvester data stays readable.
    for lpn in range(len(b.ftl._l2p_gid)):
        location = b.ftl.page_location(lpn)
        if location is not None:
            assert store.page_lpns[location] == lpn


def test_harvester_survives_home_capacity_crunch(fast_config):
    """Home reclaims while the harvester's gSB holds live data; the lazy
    path must migrate everything home without data loss."""
    virt = StorageVirtualizer(config=fast_config)
    home = virt.create_vssd("home", [0, 1])
    harvester = virt.create_vssd("harv", [2, 3])
    per = fast_config.channel_write_bandwidth_mbps
    virt.gsb_manager.make_harvestable(home, 2 * per + 1)
    gsb = virt.gsb_manager.harvest(harvester, 2 * per + 1)
    assert gsb is not None
    # Fill the harvester (including the gSB) with data that still fits
    # its own 2048-page capacity once the gSB is reclaimed.
    lpns = list(range(1500))
    for lpn in lpns:
        harvester.ftl.write_span(lpn, 1)
    # Home suddenly needs its space back.
    virt.gsb_manager.reclaim_excess(home, 0)
    virt.gsb_manager.pump_reclaims()
    assert virt.gsb_manager.reclaiming_gsbs() == []
    store = virt.ssd.store
    for lpn in lpns:
        location = harvester.ftl.page_location(lpn)
        assert location is not None
        assert store.owner[location[0]] == harvester.vssd_id


def test_failed_request_reported_not_crashed(fast_config):
    """Filling a vSSD beyond capacity marks requests failed instead of
    crashing the dispatcher."""
    virt = StorageVirtualizer(config=fast_config)
    vssd = virt.create_vssd("v", [0])
    total_pages = fast_config.blocks_per_channel * fast_config.pages_per_block
    for i in range(total_pages + 200):
        virt.dispatcher.submit(
            IoRequest(vssd.vssd_id, "write", i, 1, fast_config.page_size, virt.sim.now)
        )
        virt.sim.run(max_events=50)
    virt.sim.run()
    assert virt.dispatcher.failed_requests > 0


def test_single_vssd_whole_device(fast_config):
    """Degenerate collocation: one tenant owning everything still works
    and the multi-agent reward degenerates to Eq. 1."""
    from repro.core.reward import multi_agent_rewards

    virt = StorageVirtualizer(config=fast_config)
    vssd = virt.create_vssd("only", list(range(4)))
    for i in range(500):
        vssd.ftl.write_span(i, 1)
    assert multi_agent_rewards({vssd.vssd_id: 0.42}, 0.6) == {
        vssd.vssd_id: pytest.approx(0.42)
    }


def test_sixteen_tenants_one_channel_each():
    config = SSDConfig(
        num_channels=16, chips_per_channel=2, blocks_per_chip=8, pages_per_block=16
    )
    virt = StorageVirtualizer(config=config)
    for i in range(16):
        vssd = virt.create_vssd(f"v{i}", [i])
        vssd.ftl.write_span(0, 1)
    assert len(virt.vssds) == 16
