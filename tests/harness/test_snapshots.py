"""Warm-state snapshot/restore: bit-exactness and cache-key coverage.

The snapshot layer may only exist because it provably changes nothing:
an experiment restored from a warm snapshot — captured at any seed —
must be indistinguishable (telemetry rows, RNG draw positions, engine
scalars, detsan checkpoints) from one that paid the cold build+warm.
These tests pin that contract on a small device, plus the cache-key
sensitivity that keeps distinct warm states from ever sharing an entry.
"""

import numpy as np
import pytest

from repro.config import SSDConfig
from repro.harness import Experiment, VssdPlan
from repro.harness import snapshots
from repro.harness.telemetry import windows_to_csv
from repro.parallel import ExperimentCell, run_cell
from repro.sim.engine import Simulator

FAST = SSDConfig(
    num_channels=4,
    chips_per_channel=2,
    blocks_per_chip=16,
    pages_per_block=32,
    min_superblock_blocks=4,
)

PLANS = [
    VssdPlan("ycsb", slo_latency_us=13085.0),
    VssdPlan("terasort", slo_latency_us=239516.0),
]


@pytest.fixture(autouse=True)
def _clean_cache(monkeypatch, tmp_path):
    """Every test starts from an empty store (and, for the pre-trained
    artifacts a fleetio key comparison may touch, its own cache dir)."""
    snapshots.clear_memory_cache()
    snapshots.reset_stats()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SNAPSHOTS", raising=False)
    yield
    snapshots.clear_memory_cache()
    snapshots.reset_stats()


def _experiment(policy="hardware", config=FAST, seed=7, plans=PLANS):
    return Experiment(
        [VssdPlan(p.workload, slo_latency_us=p.slo_latency_us) for p in plans],
        policy,
        ssd_config=config,
        seed=seed,
    )


def _cold_build(monkeypatch, **kwargs):
    """Built with ``REPRO_SNAPSHOTS=off`` — the env var is the one switch,
    read at build time — and the caller's mode put back afterwards."""
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_SNAPSHOTS", "off")
        return _experiment(**kwargs).build()


def _state_fingerprint(exp):
    """Every snapshot-covered piece of post-build state, comparison-ready."""
    virt = exp.virt
    return {
        "engine": virt.sim.snapshot(),
        "streams": exp.streams.detsan_states(),
        "store": virt.ssd.store.snapshot(),
        "arrays": virt.ssd.arrays.snapshot(),
        "ftls": {
            plan.name: virt.vssd_by_name(plan.name).ftl.snapshot()
            for plan in exp.plans
        },
    }


def _assert_fingerprints_equal(a, b):
    assert a["engine"] == b["engine"]
    assert a["streams"] == b["streams"]
    assert a["arrays"] == b["arrays"]
    for name in ("page_lpns", "erase_count"):
        assert np.array_equal(a["store"][name], b["store"][name]), name
    for name in ("state", "owner", "writer", "harvested", "write_ptr",
                 "valid_count"):
        assert a["store"][name] == b["store"][name], name
    assert a["ftls"] == b["ftls"]


# ---------------------------------------------------------------------
# Restore-vs-cold bit-exactness
# ---------------------------------------------------------------------
def test_restored_build_state_equals_cold_build(monkeypatch):
    cold = _cold_build(monkeypatch)
    _experiment().build()  # miss: warms + captures
    assert snapshots.STATS["misses"] == 1 and snapshots.STATS["stores"] == 1
    restored = _experiment().build()  # hit: restores
    assert snapshots.STATS["hits"] == 1
    _assert_fingerprints_equal(
        _state_fingerprint(cold), _state_fingerprint(restored)
    )


def _run_windows_csv(tmp_path, tag, exp):
    exp.run(2.0, 0.5)
    histories = {
        plan.name: exp.monitors[plan.name].window_history for plan in exp.plans
    }
    path = tmp_path / f"windows-{tag}.csv"
    windows_to_csv(histories, path)
    return path.read_bytes()


def test_restored_run_telemetry_identical_to_cold(tmp_path, monkeypatch):
    cold = _run_windows_csv(tmp_path, "cold", _cold_build(monkeypatch))
    _run_windows_csv(tmp_path, "prime", _experiment())  # populates the cache
    warm = _run_windows_csv(tmp_path, "warm", _experiment())
    assert snapshots.STATS["hits"] == 1
    assert cold == warm


def _engine_scalars(exp):
    # The heap still holds live events post-run, so compare the engine's
    # scalars directly rather than through snapshot().
    sim = exp.virt.sim
    return sim.now, sim._next_seq, sim.events_processed


@pytest.mark.parametrize("policy", ["hardware", "software"])
def test_snapshot_captured_at_one_seed_restores_exactly_at_another(
    policy, tmp_path, monkeypatch
):
    """The warm state is seed-free: seed 8 hits seed 7's entry and then
    runs exactly as a seed-8 experiment that never saw a snapshot."""
    cold = _cold_build(monkeypatch, policy=policy, seed=8)
    cold_csv = _run_windows_csv(tmp_path, "cold", cold)
    _experiment(policy, seed=7).build()  # miss: warms + captures
    warm = _experiment(policy, seed=8).build()  # hit, across seeds
    assert snapshots.STATS["misses"] == 1 and snapshots.STATS["hits"] == 1
    assert _run_windows_csv(tmp_path, "warm", warm) == cold_csv
    assert warm.streams.detsan_states() == cold.streams.detsan_states()
    assert _engine_scalars(warm) == _engine_scalars(cold)


def test_rng_positions_identical_after_restored_run(monkeypatch):
    _experiment().build()
    cold = _cold_build(monkeypatch)
    cold.run(1.0, 0.25)
    warm = _experiment()
    warm.run(1.0, 0.25)
    assert snapshots.STATS["hits"] == 1
    assert cold.streams.detsan_states() == warm.streams.detsan_states()
    assert _engine_scalars(cold) == _engine_scalars(warm)


def test_detsan_checkpoints_identical_after_restore(monkeypatch):
    monkeypatch.setenv("REPRO_DETSAN", "1")
    cell = ExperimentCell(
        "s", ("ycsb",), "hardware", 0, duration_s=1.0, measure_after_s=0.25
    )
    monkeypatch.setenv("REPRO_SNAPSHOTS", "off")
    cold = run_cell(cell, profile=False)
    monkeypatch.setenv("REPRO_SNAPSHOTS", "mem")
    run_cell(cell, profile=False)  # prime
    warm = run_cell(cell, profile=False)
    assert snapshots.STATS["hits"] == 1
    assert cold.ok and warm.ok
    assert cold.telemetry == warm.telemetry
    assert cold.detsan is not None
    assert cold.detsan == warm.detsan


def test_snapshots_off_never_touches_cache(monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOTS", "off")
    _experiment().build()
    _experiment().build()
    assert snapshots.STATS == {"hits": 0, "misses": 0, "stores": 0}


def test_snapshots_mode_accepts_the_documented_values(monkeypatch):
    assert snapshots.snapshots_enabled()  # unset
    accepted = {
        False: ("off", "0", "no", "False"),
        True: ("mem", "ON", "1", "yes", " true "),
    }
    for enabled, values in accepted.items():
        for value in values:
            monkeypatch.setenv("REPRO_SNAPSHOTS", value)
            assert snapshots.snapshots_enabled() is enabled, value


@pytest.mark.parametrize("value", ["disk", "ofd"])
def test_snapshots_flag_rejects_disk_and_typos(monkeypatch, value):
    """``disk`` is a retired mode, not a spelling of on: it must fail
    loudly rather than run without the tier the user asked for."""
    monkeypatch.setenv("REPRO_SNAPSHOTS", value)
    with pytest.raises(ValueError, match=f"REPRO_SNAPSHOTS='{value}'.*on.*off"):
        snapshots.snapshots_enabled()
    with pytest.raises(ValueError, match="REPRO_SNAPSHOTS"):
        _experiment().build()
    assert snapshots.STATS == {"hits": 0, "misses": 0, "stores": 0}


# ---------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------
def _key_of(exp):
    exp_copy = exp
    allocation = exp_copy._plan_allocation()
    return snapshots.warm_cache_key(exp_copy, allocation)


def test_cache_key_sensitive_to_hardware_config():
    base = _key_of(_experiment())
    bigger = SSDConfig(
        num_channels=4,
        chips_per_channel=2,
        blocks_per_chip=16,
        pages_per_block=64,
        min_superblock_blocks=4,
    )
    assert _key_of(_experiment(config=bigger)) != base


def test_cache_key_sensitive_to_warm_spec():
    base = _experiment()
    other = Experiment(
        [
            VssdPlan("webserver", slo_latency_us=13085.0),
            VssdPlan("terasort", slo_latency_us=239516.0),
        ],
        "hardware",
        ssd_config=FAST,
        seed=7,
    )
    assert _key_of(other) != _key_of(base)


def test_cache_key_ignores_seed():
    assert _key_of(_experiment(seed=8)) == _key_of(_experiment(seed=7))


def test_ssdkeeper_seed_reaches_the_key_only_through_the_allocation():
    """Two ssdkeeper experiments share a key exactly when their seeded
    allocators hand out the same channels."""
    plans = [VssdPlan("ycsb"), VssdPlan("terasort"), VssdPlan("mlprep")]
    experiments = [
        _experiment("ssdkeeper", config=SSDConfig(), seed=seed, plans=plans)
        for seed in range(4)
    ]
    allocations = [exp._plan_allocation() for exp in experiments]
    keys = [_key_of(exp) for exp in experiments]
    for i in range(4):
        for j in range(i + 1, 4):
            assert (keys[i] == keys[j]) == (allocations[i] == allocations[j]), (i, j)
    # Three tenants on 16 channels: these seeds split both ways.
    assert 1 < len(set(keys)) < 4


def test_policies_with_identical_warm_share_a_key():
    # hardware and fleetio derive the same allocation and isolation for
    # these plans, so they warm identically and may share one snapshot.
    assert _key_of(_experiment("hardware")) == _key_of(_experiment("fleetio"))


def test_distinct_configs_do_not_hit_each_others_entries():
    _experiment().build()
    _experiment(plans=[VssdPlan("searchengine"), VssdPlan("terasort")]).build()
    assert snapshots.STATS["hits"] == 0
    assert snapshots.STATS["misses"] == 2


def test_build_that_drew_randomness_is_not_captured():
    """The snapshot holds no RNG state, so capture refuses a build whose
    streams have left their seed-derived start: correct but uncached."""
    drawn = _experiment()
    drawn.streams.get("workload:ycsb").random()
    drawn.build()
    assert drawn._built
    assert snapshots.capture_experiment(drawn) is None
    assert snapshots.STATS["misses"] == 1 and snapshots.STATS["stores"] == 0
    assert snapshots.capture_experiment(_experiment().build()) is not None


# ---------------------------------------------------------------------
# Engine snapshot primitives
# ---------------------------------------------------------------------
def test_engine_snapshot_rejects_pending_events():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    with pytest.raises(ValueError, match="heap"):
        sim.snapshot()


def test_engine_restore_rejects_pending_events():
    sim = Simulator()
    sim.run_until(1.0)
    snap = sim.snapshot()
    target = Simulator()
    target.schedule(5.0, lambda: None)
    with pytest.raises(ValueError, match="pending"):
        target.restore(snap)


def test_engine_restore_replays_pool_recycling_identically():
    """A restored engine recycles pooled Event objects on the original's
    schedule: same (time, seq) order, same now, same pool growth."""

    def churn(sim):
        fired = []
        for i in range(8):
            sim.schedule(float(i + 1), fired.append, i)
        keep = sim.schedule(20.0, fired.append, 99)
        sim.schedule(3.5, keep.cancel)
        sim.run_until(30.0)
        return fired, sim.now, sim._next_seq, len(sim._pool)

    origin = Simulator()
    for i in range(4):  # build up a non-empty free list before capture
        origin.schedule(float(i + 1), lambda: None)
    origin.run_until(10.0)
    snap = origin.snapshot()

    twin = Simulator()
    twin.restore(snap)
    assert len(twin._pool) == len(origin._pool)
    assert churn(origin) == churn(twin)


def test_memory_cache_bounded():
    for i in range(snapshots._MEMORY_CACHE_MAX + 4):
        snapshots.install(f"key{i}", {"i": i})
    assert len(snapshots._MEMORY_CACHE) == snapshots._MEMORY_CACHE_MAX
    assert "key0" not in snapshots._MEMORY_CACHE  # oldest-inserted goes first
