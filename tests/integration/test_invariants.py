"""Cross-module invariants under randomized traffic (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.sched import IoRequest
from repro.virt import StorageVirtualizer
from repro.virt.actions import HarvestAction, MakeHarvestableAction


def _small_world():
    config = SSDConfig(
        num_channels=4, chips_per_channel=2, blocks_per_chip=8,
        pages_per_block=16, min_superblock_blocks=2,
    )
    virt = StorageVirtualizer(config=config)
    a = virt.create_vssd("a", [0, 1])
    b = virt.create_vssd("b", [2, 3])
    return config, virt, a, b


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 1),          # vssd index
            st.booleans(),              # read?
            st.integers(0, 400),        # lpn
            st.integers(1, 4),          # pages
        ),
        min_size=1,
        max_size=200,
    )
)
def test_every_submitted_request_completes_exactly_once(ops):
    """Conservation: submissions == completions, no double-delivery."""
    config, virt, a, b = _small_world()
    seen = {}
    virt.dispatcher.add_completion_callback(
        lambda r: seen.__setitem__(r.req_id, seen.get(r.req_id, 0) + 1)
    )
    submitted = 0
    for vssd_index, is_read, lpn, pages in ops:
        vssd = (a, b)[vssd_index]
        virt.dispatcher.submit(
            IoRequest(
                vssd.vssd_id,
                "read" if is_read else "write",
                lpn,
                pages,
                config.page_size,
                virt.sim.now,
            )
        )
        submitted += 1
    virt.sim.run()
    assert len(seen) == submitted
    assert all(count == 1 for count in seen.values())


@settings(max_examples=10, deadline=None)
@given(
    actions=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 2)),
        min_size=1,
        max_size=25,
    ),
    writes=st.integers(50, 300),
)
def test_block_ownership_conserved_under_harvest_churn(actions, writes):
    """Every block always has exactly one owner; none leak or duplicate."""
    config, virt, a, b = _small_world()
    per = config.channel_write_bandwidth_mbps
    rng = np.random.default_rng(0)
    vssds = (a, b)
    for who, what in actions:
        vssd = vssds[who]
        if what == 0:
            virt.admission.submit(MakeHarvestableAction(vssd.vssd_id, per + 1))
        elif what == 1:
            virt.admission.submit(HarvestAction(vssd.vssd_id, per + 1))
        else:
            virt.admission.submit(MakeHarvestableAction(vssd.vssd_id, 1e-9))
        virt.admission.process_batch()
        virt.gsb_manager.pump_reclaims()
        for _ in range(writes // len(actions) + 1):
            vssds[int(rng.integers(2))].ftl.write_span(int(rng.integers(0, 300)), 1)
    owners = {}
    for channel in virt.ssd.channels:
        for block in channel.blocks:
            assert block.owner in (a.vssd_id, b.vssd_id)
            owners[block.block_id] = block.owner
    assert len(owners) == config.total_blocks
    # Every mapped page of both tenants resolves to its own data.
    for vssd in vssds:
        for lpn, pointer in vssd.ftl.page_map.items():
            assert pointer.block.page_lpns[pointer.page] == lpn
            assert pointer.block.writer == vssd.vssd_id


def test_latency_never_below_service_floor():
    """No request completes faster than its minimal physical service."""
    config, virt, a, _b = _small_world()
    latencies = []
    virt.dispatcher.add_completion_callback(
        lambda r: latencies.append((r.op, r.latency_us))
    )
    for i in range(50):
        virt.dispatcher.submit(
            IoRequest(a.vssd_id, "write", i, 1, config.page_size, virt.sim.now)
        )
    virt.sim.run()
    write_floor = config.bus_transfer_us + config.page_write_us
    for op, latency in latencies:
        assert latency >= write_floor - 1e-6


def test_simulated_time_monotonic_through_full_stack():
    """Completion timestamps are non-decreasing per vSSD FIFO stream."""
    config, virt, a, _b = _small_world()
    completions = []
    virt.dispatcher.add_completion_callback(
        lambda r: completions.append(r.complete_time)
    )
    for i in range(100):
        virt.dispatcher.submit(
            IoRequest(a.vssd_id, "write", i % 64, 1, config.page_size, virt.sim.now)
        )
    virt.sim.run()
    # Single-vSSD, single-page FIFO writes complete in order.
    assert completions == sorted(completions)


def test_valid_pages_equal_mapped_pages_device_wide():
    """Sum of block valid counts equals sum of FTL map sizes, always."""
    config, virt, a, b = _small_world()
    rng = np.random.default_rng(1)
    per = config.channel_write_bandwidth_mbps
    virt.gsb_manager.make_harvestable(a, per + 1)
    virt.gsb_manager.harvest(b, per + 1)
    for _ in range(600):
        vssd = (a, b)[int(rng.integers(2))]
        vssd.ftl.write_span(int(rng.integers(0, 250)), 1)
    total_valid = sum(
        block.valid_count for ch in virt.ssd.channels for block in ch.blocks
    )
    total_mapped = a.ftl.mapped_pages() + b.ftl.mapped_pages()
    assert total_valid == total_mapped
