"""Differential suite: batched rollout collection vs the per-agent oracles.

Both collectors draw one batch of actions per window (one
``forward_batch`` and one inverse CDF over all agents); the per-agent
loops they replaced live on in ``collect_oracle.py``, sampling with
``rng.choice``.  From the same streams, every buffer field, the reward
curve and each stream's end state must be equal bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.core.pretrain import _collect_scalar, _sample_collocation, collect_vector_episode
from repro.core.vector_env import VectorFastFleetEnv
from repro.rl import CategoricalPolicy, PolicyValueNet
from tests.core import collect_oracle


def _bits(array) -> bytes:
    return np.ascontiguousarray(np.asarray(array, dtype=np.float64)).tobytes()


def _policy(seed: int) -> CategoricalPolicy:
    rl, ssd = RLConfig(), SSDConfig()
    num_actions = ActionSpace(ssd.channel_write_bandwidth_mbps).num_actions
    net = PolicyValueNet(
        rl.state_dim, num_actions, rl.hidden_layer_sizes, rng=np.random.default_rng(seed)
    )
    # A sharper head than the init gain, so the sampled actions vary and
    # some rows are near one-hot.
    net.params["Wp"] *= 100.0
    return CategoricalPolicy(net)


def _assert_same_buffers(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in ("states", "log_probs", "rewards", "values", "advantages", "returns"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field)), field
        assert (a.actions == b.actions).all()


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_scalar_collection_matches_per_agent_oracle(seed):
    rl, ssd = RLConfig(), SSDConfig()
    policy = _policy(seed)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _collect_scalar(policy, rng, rl, ssd, 5, 60, 7.0, None)
    expected = collect_oracle.collect_scalar(policy, oracle_rng, rl, ssd, 5, 60, 7.0)
    _assert_same_buffers(got[0], expected[0])
    assert got[1] == expected[1]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_vector_episode_matches_per_agent_oracle(seed):
    rl, ssd = RLConfig(), SSDConfig()
    policy = _policy(seed)
    colloc = np.random.default_rng(seed)
    spec_lists = [_sample_collocation(colloc, ssd) for _ in range(3)]
    runs = []
    for _ in range(2):
        env_seq, act_seq = np.random.SeedSequence(seed).spawn(2)
        env = VectorFastFleetEnv(
            spec_lists,
            rl,
            ssd,
            rngs=[np.random.default_rng(child) for child in env_seq.spawn(3)],
            episode_windows=6,
        )
        runs.append((env, act_seq))
    (env, act_seq), (oracle_env, oracle_seq) = runs
    got, got_rewards = collect_vector_episode(env, policy.net, policy, act_seq, rl)
    expected, expected_rewards = collect_oracle.collect_vector_episode(
        oracle_env, policy.net, oracle_seq, rl
    )
    _assert_same_buffers(got, expected)
    assert _bits(got_rewards) == _bits(expected_rewards)
    assert act_seq.n_children_spawned == oracle_seq.n_children_spawned
