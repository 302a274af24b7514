"""Cross-module invariants under randomized traffic (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.sched import IoRequest
from repro.virt import StorageVirtualizer
from repro.virt.actions import HarvestAction, MakeHarvestableAction


def _small_world(shared: bool = False):
    """Two tenants on a small device: hardware-isolated on channels 0-1
    and 2-3, or (``shared``) software-isolated on every channel."""
    config = SSDConfig(
        num_channels=4, chips_per_channel=2, blocks_per_chip=8,
        pages_per_block=16, min_superblock_blocks=2,
    )
    virt = StorageVirtualizer(config=config)
    if shared:
        every = list(range(config.num_channels))
        a = virt.create_vssd("a", every, isolation="software", blocks_per_channel=8)
        b = virt.create_vssd("b", every, isolation="software", blocks_per_channel=8)
    else:
        a = virt.create_vssd("a", [0, 1])
        b = virt.create_vssd("b", [2, 3])
    return config, virt, a, b


_REQUESTS = st.lists(
    st.tuples(
        st.integers(0, 1),          # vssd index
        st.booleans(),              # read?
        st.integers(0, 400),        # lpn
        st.integers(1, 4),          # pages
    ),
    min_size=1,
    max_size=200,
)


def _check_completes_exactly_once(ops, shared: bool) -> None:
    """Conservation: submissions == completions, no double-delivery, and
    once the device drains every tenant's in-flight budget is whole."""
    config, virt, a, b = _small_world(shared)
    # Holding every completed request keeps each id() distinct.
    seen = []
    virt.dispatcher.add_completion_callback(seen.append)
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
    assert len({id(request) for request in seen}) == submitted
    inflight = virt.dispatcher._inflight_pages
    assert all(inflight.get(v.vssd_id, 0) == 0 for v in (a, b)), inflight


@settings(deadline=None)
@given(ops=_REQUESTS)
def test_every_submitted_request_completes_exactly_once(ops):
    _check_completes_exactly_once(ops, shared=False)


@settings(deadline=None)
@given(ops=_REQUESTS)
def test_every_submitted_request_completes_exactly_once_on_shared_channels(ops):
    _check_completes_exactly_once(ops, shared=True)


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
    store = virt.ssd.store
    assert store.n_blocks == config.total_blocks
    assert all(owner in (a.vssd_id, b.vssd_id) for owner in store.owner)
    # Every mapped page of both tenants resolves to its own data.
    for vssd in vssds:
        for lpn in range(len(vssd.ftl._l2p_gid)):
            location = vssd.ftl.page_location(lpn)
            if location is None:
                continue
            assert store.page_lpns[location] == lpn
            assert store.writer[location[0]] == vssd.vssd_id


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
    total_valid = sum(virt.ssd.store.valid_count)
    total_mapped = a.ftl.mapped_pages() + b.ftl.mapped_pages()
    assert total_valid == total_mapped
