"""The warm fill's contract, asserted instead of commented.

The seed-free ``warm_cache_key`` (one snapshot for every seed of a
fleet, primed by one probe build in the fleet runner's parent) rests on
"the warm fill draws nothing and schedules nothing": the post-warm
columns depend on the plans and the device, not on the seed or on
anything that ran before.
``capture_experiment`` makes the same stream comparison before it caches
a build.  Checked here after a cold ``Experiment.build()`` on the
full-size device, for the four policies the benchmark runs, together
with the page conservation the fill must keep.
"""

import numpy as np
import pytest

from repro.config import RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.harness import Experiment, plans_for_pair
from repro.rl import PolicyValueNet
from repro.sim.random import RandomStreams
from repro.ssd.blockstate import NO_LPN, BlockState

SEED = 5


@pytest.fixture(scope="module", params=["hardware", "software", "adaptive", "fleetio"])
def built(request):
    kwargs = {}
    if request.param == "fleetio":
        # An explicit tiny net: no five-minute pre-training, no cache.
        actions = ActionSpace(SSDConfig().channel_write_bandwidth_mbps).num_actions
        kwargs = {
            "pretrained_net": PolicyValueNet(RLConfig().state_dim, actions, (8, 8)),
            "fleetio_kwargs": {"unified_alpha_only": True},
        }
    experiment = Experiment(
        plans_for_pair("ycsb", "terasort"), request.param, seed=SEED, **kwargs
    )
    with pytest.MonkeyPatch.context() as patch:  # a cold build, not a restore
        patch.setenv("REPRO_SNAPSHOTS", "off")
        return experiment.build()


def test_warm_draws_nothing_and_schedules_nothing(built):
    sim = built.virt.sim
    assert sim.now == 0
    assert not sim._heap
    fresh = RandomStreams(SEED)
    states = built.streams.detsan_states()
    assert states  # the workload streams exist; none has been drawn from
    for name, state in states.items():
        assert state == fresh.get(name).bit_generator.state, name
    arrays = built.virt.ssd.arrays
    assert not any(arrays.bus_busy) and not any(arrays.chip_busy)
    for plan in built.plans:
        ftl = built.virt.vssd_by_name(plan.name).ftl
        assert ftl.stats.host_writes == 0
        assert ftl.stats.gc_runs == 0


def test_warm_conserves_pages(built):
    store = built.virt.ssd.store
    live = store.page_lpns != NO_LPN
    assert store.valid_count == live.sum(axis=1).tolist()
    # Programmed pages are exactly the ones below each write pointer.
    below = np.arange(store.pages_per_block) < np.array(store.write_ptr)[:, None]
    assert not (live & ~below).any()
    full = np.array(store.write_ptr) == store.pages_per_block
    assert [s is BlockState.FULL for s in store.state] == full.tolist()
    mapped = 0
    for plan in built.plans:
        ftl = built.virt.vssd_by_name(plan.name).ftl
        mapped += ftl.mapped_pages()
        lpns = np.flatnonzero(np.array(ftl._l2p_gid) >= 0)
        # Every mapped LPN points at the page that holds it.
        assert (store.page_lpns[np.array(ftl._l2p_gid)[lpns],
                                np.array(ftl._l2p_page)[lpns]] == lpns).all()
        assert len(lpns) == ftl.mapped_pages()
    assert mapped == live.sum()


def test_l2p_entries_of_a_block_share_one_int(built):
    """Snapshots copy the L2P lists by reference; an int object per LPN
    instead of per block is ~3 MB per vSSD per copy (the benchmark's
    peak-RSS bound noticed)."""
    store = built.virt.ssd.store
    for plan in built.plans:
        gids = built.virt.vssd_by_name(plan.name).ftl._l2p_gid
        assert {type(gid) for gid in gids} == {int}
        assert len({id(gid) for gid in gids}) <= store.n_blocks + 1
