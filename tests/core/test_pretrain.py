"""Tests for offline pre-training (kept tiny: 2-3 iterations)."""

import numpy as np
import pytest

from repro.config import RLConfig
from repro.config import CLUSTER_ALPHAS
from repro.core.actionspace import ActionSpace
from repro.core.fast_env import FastFleetEnv, FastVssdSpec
from repro.core.pretrain import (
    _EVAL_SCENARIOS,
    PretrainResult,
    _evaluate_greedy,
    _merge_buffers,
    _sample_collocation,
    apply_reward_ablation,
    coef_at,
    pretrain,
    pretrain_best,
)
from repro.config import SSDConfig
from repro.rl import PolicyValueNet, RolloutBuffer
from repro.rl.policy import CategoricalPolicy
from repro.workloads.catalog import CLUSTER_GROUND_TRUTH, get_spec


def test_pretrain_returns_trained_net():
    result = pretrain(iterations=2, seed=0, rollout_batch=64, episode_windows=5)
    assert isinstance(result, PretrainResult)
    assert len(result.mean_rewards) == 2
    assert result.net.num_parameters() > 0


def test_pretrain_checkpoint_selected():
    result = pretrain(iterations=20, seed=0, rollout_batch=64, episode_windows=5)
    assert result.best_iteration >= 0
    assert np.isfinite(result.best_reward)


def test_pretrain_deterministic_given_seed():
    a = pretrain(iterations=2, seed=5, rollout_batch=64, episode_windows=5)
    b = pretrain(iterations=2, seed=5, rollout_batch=64, episode_windows=5)
    assert np.allclose(a.net.get_flat_params(), b.net.get_flat_params())


def test_sample_collocation_shape():
    rng = np.random.default_rng(0)
    config = SSDConfig()
    for _ in range(20):
        specs = _sample_collocation(rng, config)
        assert 2 <= len(specs) <= 8
        # At least one latency service and one bandwidth job, so both
        # harvesting directions exist.
        categories = {spec.workload.category for spec in specs}
        assert categories == {"latency", "bandwidth"}
        assert sum(spec.channels for spec in specs) <= config.num_channels


def test_sample_collocation_assigns_every_channel():
    """No stranded remainder: tenant channels sum to the whole device,
    with the extra channels going to the first ``num_channels % n``
    tenants, one each."""
    rng = np.random.default_rng(1)
    config = SSDConfig()
    sizes_seen = set()
    for _ in range(200):
        specs = _sample_collocation(rng, config)
        n = len(specs)
        sizes_seen.add(n)
        assert sum(spec.channels for spec in specs) == config.num_channels
        base, remainder = divmod(config.num_channels, n)
        expected = [base + (1 if i < remainder else 0) for i in range(n)]
        assert [spec.channels for spec in specs] == expected
    # The uneven mixes (the ones the old // split shortchanged) showed up.
    assert {3, 6} <= sizes_seen


def test_coef_at_stage_boundaries():
    schedule = ((0.5, 3.0), (1.0, 7.0))
    # Progress (i+1)/iterations exactly at a stage fraction still belongs
    # to that stage: iteration 4 of 10 has progress 0.5.
    assert coef_at(4, 10, schedule) == 3.0
    assert coef_at(5, 10, schedule) == 7.0
    assert coef_at(9, 10, schedule) == 7.0
    # Fractions short of 1.0 fall through to the last stage's coefficient.
    assert coef_at(9, 10, ((0.3, 1.0), (0.6, 2.0))) == 2.0
    # Single-stage schedule covers every iteration.
    assert coef_at(0, 4, ((1.0, 5.0),)) == 5.0


def test_apply_reward_ablation_overrides_in_place():
    rng = np.random.default_rng(2)
    specs = _sample_collocation(rng, SSDConfig())
    original = [spec.alpha for spec in specs]
    assert len(set(original)) > 1  # per-cluster alphas differ
    returned = apply_reward_ablation(specs, 0.42)
    assert returned is specs  # mutates and returns the same list
    assert all(spec.alpha == 0.42 for spec in specs)
    # None leaves the (now overridden) alphas untouched.
    assert apply_reward_ablation(specs, None) is specs
    assert all(spec.alpha == 0.42 for spec in specs)


def test_merge_buffers_normalizes_per_agent():
    rl = RLConfig()
    big = RolloutBuffer(rl.discount_factor, rl.gae_lambda)
    small = RolloutBuffer(rl.discount_factor, rl.gae_lambda)
    rng = np.random.default_rng(0)
    for _ in range(16):
        big.add(rng.standard_normal(3), 0, -1.0, 100.0 * rng.random(), 0.0)
        small.add(rng.standard_normal(3), 0, -1.0, 0.01 * rng.random(), 0.0)
    big.finish_path()
    small.finish_path()
    merged = _merge_buffers([big, small], rl)
    adv = np.asarray(merged.advantages)
    # Both halves contribute unit-scale advantages after normalization.
    assert np.abs(adv[:16]).max() == pytest.approx(np.abs(adv[16:]).max(), rel=2.0)
    assert len(merged) == 32


def _evaluate_greedy_per_agent(policy, rl_config, ssd_config):
    """The greedy evaluation with one ``act_deterministic`` per agent."""
    totals = []
    for index, names in enumerate(_EVAL_SCENARIOS):
        channels = ssd_config.num_channels // len(names)
        specs = [
            FastVssdSpec(
                workload=get_spec(name),
                channels=channels,
                alpha=CLUSTER_ALPHAS[CLUSTER_GROUND_TRUTH.get(name, "LC-1")],
            )
            for name in names
        ]
        env = FastFleetEnv(
            specs, rl_config, ssd_config, np.random.default_rng(1000 + index),
            episode_windows=30,
        )
        states = env.reset()
        done = False
        while not done:
            actions = {i: policy.act_deterministic(s) for i, s in states.items()}
            states, rewards, done, _info = env.step(actions)
            totals.append(float(np.mean(list(rewards.values()))))
    return float(np.mean(totals))


def test_batched_greedy_eval_matches_per_agent():
    """One forward_batch + argmax per window scores exactly what
    per-agent act_deterministic calls score."""
    rl, ssd = RLConfig(), SSDConfig()
    num_actions = ActionSpace(ssd.channel_write_bandwidth_mbps).num_actions
    net = PolicyValueNet(
        rl.state_dim, num_actions, rl.hidden_layer_sizes, rng=np.random.default_rng(3)
    )
    # A sharper policy head than the init gain, so the greedy actions vary.
    net.params["Wp"] *= 300.0
    policy = CategoricalPolicy(net)
    assert _evaluate_greedy(policy, rl, ssd) == _evaluate_greedy_per_agent(policy, rl, ssd)


def test_interference_curriculum_applies():
    """Early iterations use the mild coefficient, late ones the harsh."""
    seen = []
    import sys

    pretrain_module = sys.modules["repro.core.pretrain"]
    original = pretrain_module.FastFleetEnv

    class SpyEnv(original):
        def __init__(self, *args, **kwargs):
            seen.append(kwargs.get("interference_coef"))
            super().__init__(*args, **kwargs)

    pretrain_module.FastFleetEnv = SpyEnv
    try:
        pretrain(iterations=4, seed=0, rollout_batch=32, episode_windows=3,
                 interference_schedule=((0.5, 1.0), (1.0, 9.0)))
    finally:
        pretrain_module.FastFleetEnv = original
    assert 1.0 in seen and 9.0 in seen


# ----------------------------------------------------------------------
# Vectorized engine (envs > 1) and the parallel seed search
# ----------------------------------------------------------------------

def test_pretrain_vectorized_returns_trained_net():
    result = pretrain(
        iterations=2, seed=0, rollout_batch=64, episode_windows=5, envs=4
    )
    assert isinstance(result, PretrainResult)
    assert len(result.mean_rewards) == 2
    assert all(np.isfinite(r) for r in result.mean_rewards)


def test_pretrain_vectorized_deterministic_given_seed():
    a = pretrain(iterations=2, seed=5, rollout_batch=64, episode_windows=5, envs=3)
    b = pretrain(iterations=2, seed=5, rollout_batch=64, episode_windows=5, envs=3)
    assert (a.net.get_flat_params() == b.net.get_flat_params()).all()
    assert a.mean_rewards == b.mean_rewards


def _collection_spy(monkeypatch):
    """Record each iteration's merged transition count and each lockstep
    episode's env count."""
    import sys

    pretrain_module = sys.modules["repro.core.pretrain"]

    sizes, widths = [], []
    merge = pretrain_module._merge_buffers
    vector_env = pretrain_module.VectorFastFleetEnv

    def spy_merge(buffers, rl_config):
        merged = merge(buffers, rl_config)
        sizes.append(len(merged))
        return merged

    class SpyEnv(vector_env):
        def __init__(self, spec_lists, *args, **kwargs):
            widths.append(len(spec_lists))
            super().__init__(spec_lists, *args, **kwargs)

    monkeypatch.setattr(pretrain_module, "_merge_buffers", spy_merge)
    monkeypatch.setattr(pretrain_module, "VectorFastFleetEnv", SpyEnv)
    return sizes, widths


@pytest.mark.parametrize("rollout_batch", [64, 8])
def test_pretrain_vectorized_overshoots_less_than_one_episode(monkeypatch, rollout_batch):
    """An iteration's last lockstep episode steps only the envs it needs:
    it collects at least ``rollout_batch`` transitions and fewer than one
    largest env's episode (8 tenants x 5 windows) more."""
    sizes, widths = _collection_spy(monkeypatch)
    result = pretrain(
        iterations=3, seed=0, rollout_batch=rollout_batch, episode_windows=5, envs=4
    )
    assert len(sizes) == 3
    assert all(rollout_batch <= n < rollout_batch + 8 * 5 for n in sizes), sizes
    # Some episode stepped fewer than the 4 envs asked for; with
    # rollout_batch = 8 every env (>= 2 tenants x 5 windows) suffices
    # alone, so every episode has K' = 1.
    assert min(widths) < 4 and max(widths) <= 4
    if rollout_batch == 8:
        assert widths == [1, 1, 1]
    assert all(np.isfinite(r) for r in result.mean_rewards)


def test_pretrain_vectorized_quality_matches_scalar():
    """The two engines explore different streams but must land in the
    same place: greedy-eval scores agree within a small tolerance."""
    scalar = pretrain(iterations=8, seed=3, rollout_batch=64, episode_windows=5)
    vector = pretrain(
        iterations=8, seed=3, rollout_batch=64, episode_windows=5, envs=4
    )
    rl, ssd = RLConfig(), SSDConfig()
    score_scalar = _evaluate_greedy(CategoricalPolicy(scalar.net), rl, ssd)
    score_vector = _evaluate_greedy(CategoricalPolicy(vector.net), rl, ssd)
    assert abs(score_scalar - score_vector) < 0.15


def test_pretrain_rejects_bad_envs():
    with pytest.raises(ValueError):
        pretrain(iterations=1, envs=0)


def test_pretrain_best_parallel_matches_serial():
    """The process fan-out selects the identical winner (same params)."""
    kwargs = dict(rollout_batch=32, episode_windows=3)
    serial = pretrain_best(seeds=(0, 1), iterations=2, **kwargs)
    parallel = pretrain_best(seeds=(0, 1), iterations=2, workers=2, **kwargs)
    assert (
        serial.net.get_flat_params() == parallel.net.get_flat_params()
    ).all()
    assert serial.best_reward == parallel.best_reward
