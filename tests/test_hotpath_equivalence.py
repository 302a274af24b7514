"""Bit-exactness tests for the single-run hot-path optimizations.

Every optimization behind the byte-identical telemetry gate has a direct
equivalence test here: the fast path is compared against the unoptimized
reference computation *bit for bit* (``tobytes()`` equality, so even a
``-0.0`` vs ``+0.0`` drift fails), and where the fast path consumes an
RNG, the generator's end state is compared too — identical values from a
different stream position would still corrupt downstream determinism.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rl.buffer import RolloutBuffer
from repro.rl.nets import PolicyValueNet
from repro.rl.policy import CategoricalPolicy
from repro.sim import Simulator
from repro.workloads.address import ZipfPattern
from repro.workloads.catalog import get_spec
from repro.workloads.model import WorkloadModel


def _bits(array) -> bytes:
    return np.ascontiguousarray(np.asarray(array, dtype=np.float64)).tobytes()


# -- batched inference ----------------------------------------------------

@pytest.fixture
def net() -> PolicyValueNet:
    return PolicyValueNet(33, 7, (50, 50), rng=np.random.default_rng(42))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
def test_forward_batch_matches_per_row_forward(net, n):
    """Stacked forward must reproduce each per-row forward bit-for-bit."""
    x = np.random.default_rng(n).standard_normal((n, net.input_dim))
    batch_logits, batch_values = net.forward_batch(x)
    assert batch_logits.shape == (n, net.num_actions)
    for i in range(n):
        row_logits, row_values, _ = net.forward(x[i : i + 1])
        assert _bits(batch_logits[i]) == _bits(row_logits[0])
        assert _bits(batch_values[i]) == _bits(row_values[0])


def test_act_from_batched_logits_matches_act(net):
    """Sampling from batched logits = per-agent act(): same action,
    log-prob, value, *and* RNG end state."""
    policy = CategoricalPolicy(net)
    states = np.random.default_rng(7).standard_normal((6, net.input_dim))
    logits, values = net.forward_batch(states)
    for i in range(len(states)):
        rng_ref = np.random.default_rng(100 + i)
        rng_fast = np.random.default_rng(100 + i)
        ref = policy.act(states[i : i + 1], rng_ref)
        fast = policy.act_from_logits(logits[i], values[i], rng_fast)
        assert fast[0] == ref[0]
        assert _bits(fast[1:]) == _bits(ref[1:])
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


def test_act_greedy_from_batched_logits_matches_act_greedy(net):
    policy = CategoricalPolicy(net)
    states = np.random.default_rng(8).standard_normal((5, net.input_dim))
    logits, values = net.forward_batch(states)
    for i in range(len(states)):
        ref = policy.act_greedy(states[i : i + 1])
        fast = policy.act_greedy_from_logits(logits[i], values[i])
        assert fast[0] == ref[0]
        assert _bits(fast[1:]) == _bits(ref[1:])


def test_params_version_tracks_identity(net):
    """Equal tokens must mean bit-identical params; mutation refreshes."""
    clone = net.clone()
    assert clone.params_version is net.params_version
    token = net.params_version
    net.mark_params_updated()
    assert net.params_version is not token
    clone.set_flat_params(clone.get_flat_params())
    assert clone.params_version is not token


# -- vectorized GAE -------------------------------------------------------

def _reference_gae(rewards, values, bootstrap, discount, lam):
    """The original scalar finish_path loop, verbatim operand order."""
    values = list(values) + [bootstrap]
    advantages = []
    gae = 0.0
    for t in reversed(range(len(rewards))):
        delta = rewards[t] + discount * values[t + 1] - values[t]
        gae = delta + discount * lam * gae
        advantages.append(gae)
    advantages.reverse()
    returns = [adv + val for adv, val in zip(advantages, values[:-1])]
    return advantages, returns


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("length", [1, 2, 17, 256])
def test_finish_path_matches_reference_loop(seed, length):
    rng = np.random.default_rng(seed)
    discount, lam = 0.9, 0.95
    buffer = RolloutBuffer(discount, lam)
    rewards = (rng.standard_normal(length) * 10).tolist()
    values = (rng.standard_normal(length) * 5).tolist()
    for t in range(length):
        buffer.add(rng.standard_normal(4), 0, -1.0, rewards[t], values[t])
    bootstrap = float(rng.standard_normal())
    buffer.finish_path(bootstrap)
    ref_adv, ref_ret = _reference_gae(rewards, values, bootstrap, discount, lam)
    assert _bits(buffer.advantages) == _bits(ref_adv)
    assert _bits(buffer.returns) == _bits(ref_ret)


def test_finish_path_multiple_segments_accumulate():
    """Each segment's GAE must only see its own transitions."""
    rng = np.random.default_rng(3)
    buffer = RolloutBuffer(0.99, 0.9)
    all_adv, all_ret = [], []
    for length in (4, 1, 9):
        rewards = rng.standard_normal(length).tolist()
        values = rng.standard_normal(length).tolist()
        for t in range(length):
            buffer.add(rng.standard_normal(2), 1, -0.5, rewards[t], values[t])
        buffer.finish_path(0.25)
        adv, ret = _reference_gae(rewards, values, 0.25, 0.99, 0.9)
        all_adv.extend(adv)
        all_ret.extend(ret)
    assert _bits(buffer.advantages) == _bits(all_adv)
    assert _bits(buffer.returns) == _bits(all_ret)


# -- event pool -----------------------------------------------------------

def test_event_pool_preserves_fire_order_under_churn():
    """Recycled Event objects and heap compaction must not perturb the
    (time, schedule-order) total order, even under heavy cancel churn."""
    sim = Simulator()
    rng = np.random.default_rng(11)
    fired: list = []
    expected: list = []
    serial = 0
    for _round in range(40):
        handles = []
        for _ in range(25):
            # Coarse times force plenty of (time, seq) ties.
            delay = float(rng.integers(0, 8))
            label = serial
            serial += 1
            handles.append((sim.schedule(delay, fired.append, label),
                            sim.now + delay, label))
        keep = rng.random(len(handles)) > 0.5
        for (handle, time_us, label), kept in zip(handles, keep):
            if kept:
                expected.append((time_us, label))
            else:
                handle.cancel()
        sim.run_until(sim.now + float(rng.integers(1, 6)))
    sim.run()
    expected.sort(key=lambda pair: (pair[0], pair[1]))
    assert fired == [label for _time, label in expected]
    # The stress must actually exercise the machinery it guards.
    assert sim.heap_compactions > 0
    assert len(sim._pool) > 0


def test_event_pool_recycles_objects():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.run()
    recycled = sim.schedule(1.0, lambda: None)
    assert recycled is first  # same object, pulled back off the free list
    # A stale handle to the fired event aliases the new one by design;
    # cancelling *before* recycling must be a no-op on pooled events.
    sim.run()
    first.cancel()
    assert sim.pending_events == 0


# -- cdf-searchsorted sampling --------------------------------------------

def test_zipf_sample_matches_generator_choice():
    pattern = ZipfPattern(working_set_pages=1 << 16)
    rng_fast = np.random.default_rng(123)
    rng_ref = np.random.default_rng(123)
    for _ in range(2000):
        lpn = pattern.sample(rng_fast, 1)
        bucket = int(pattern._bucket_order[rng_ref.choice(pattern.BUCKETS, p=pattern._probs)])
        offset = int(rng_ref.integers(0, pattern._bucket_pages))
        assert lpn == min(bucket * pattern._bucket_pages + offset, (1 << 16) - 1)
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


# -- twin FTLs for the differential suites --------------------------------
#
# ``tests/ssd/test_span_differential.py``, ``test_warm_fill_differential.py``
# and ``test_gc_differential.py`` hold the FTL's fused passes to their
# per-page oracles; the twin devices and the bit-exact state capture they
# compare live here.

def _twin_ftls(**config_overrides):
    from repro.config import SSDConfig
    from repro.ssd import Ssd, VssdFtl
    from repro.ssd.hbt import HarvestedBlockTable

    config = SSDConfig(
        num_channels=4,
        chips_per_channel=2,
        blocks_per_chip=8,
        pages_per_block=16,
        min_superblock_blocks=2,
        **config_overrides,
    )
    twins = []
    for _ in range(2):
        sim = Simulator()
        ssd = Ssd(config, sim)
        ftl = VssdFtl(0, ssd, hbt=HarvestedBlockTable())
        ftl.adopt_blocks(ssd.allocate_channels(0, [0, 1]))
        twins.append((sim, ftl))
    return twins


def _ftl_state(ftl):
    """Every piece of mutable state the span and warm paths touch, bit-exact."""
    store = ftl._store
    arrays = ftl._arrays
    stats = ftl.stats
    return {
        "l2p_gid": list(ftl._l2p_gid),
        "l2p_page": list(ftl._l2p_page),
        "page_lpns": store.page_lpns.tobytes(),
        "erase_count": store.erase_count.tobytes(),
        "state": list(store.state),
        "owner": list(store.owner),
        "writer": list(store.writer),
        "harvested": list(store.harvested),
        "write_ptr": list(store.write_ptr),
        "valid_count": list(store.valid_count),
        "bus_busy": _bits(arrays.bus_busy),
        "chip_busy": _bits(arrays.chip_busy),
        # Region snapshots: free/open deque orders, _free_pages, version.
        "own_region": ftl.own_region.snapshot(),
        "harvest_regions": [region.snapshot() for region in ftl.harvest_regions],
        "mapped": ftl._mapped,
        "write_rr": ftl._write_rr,
        "unmapped_rr": ftl._unmapped_rr,
        "ftl_stats": (
            stats.host_reads, stats.host_writes, stats.unmapped_reads,
            stats.gc_reads, stats.gc_writes, stats.gc_runs,
            stats.blocks_erased,
        ),
        "chan_stats": [
            (s.pages_read, s.pages_written, s.gc_pages_migrated,
             s.gc_erases, _bits([s.busy_us]), _bits([s.gc_busy_us]))
            for s in ftl._chan_stats
        ],
    }


@pytest.mark.parametrize("workload", ["ycsb", "terasort", "vdi-web"])
def test_size_sampling_matches_generator_choice(workload):
    spec = get_spec(workload)
    rng_fast = np.random.default_rng(9)
    rng_ref = np.random.default_rng(9)
    model = WorkloadModel(spec, rng_fast, working_set_pages=4096)
    sizes = np.asarray(spec.io_sizes_pages, dtype=np.int64)
    probs = np.asarray(spec.io_size_probs, dtype=np.float64)
    for _ in range(2000):
        assert model.sample_size_pages() == int(rng_ref.choice(sizes, p=probs))
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
