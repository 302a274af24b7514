"""The per-agent rollout collectors, kept as test oracles.

These are ``_collect_scalar`` and ``collect_vector_episode`` as they were
before both drew their actions in one batch per window: the scalar one
runs ``forward`` and ``rng.choice`` once per agent on the shared stream,
the lockstep one samples each agent's logits row with ``rng.choice`` on
that agent's own stream, and each transition is appended one at a time.
``test_collect_differential.py`` requires the batched collectors to
produce bit-identical buffers and rewards and to leave every stream
where these do.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.fast_env import FastFleetEnv
from repro.core.pretrain import _sample_collocation
from repro.rl.buffer import RolloutBuffer
from tests.rl.sampler_oracle import choice_from_logits


def collect_scalar(
    policy, rng, rl_config, ssd_config, episode_windows, rollout_batch, interference_coef
) -> Tuple[List[RolloutBuffer], List[float]]:
    buffers: List[RolloutBuffer] = []
    episode_rewards: List[float] = []
    collected = 0
    while collected < rollout_batch:
        env = FastFleetEnv(
            _sample_collocation(rng, ssd_config),
            rl_config,
            ssd_config,
            rng,
            episode_windows=episode_windows,
            interference_coef=interference_coef,
        )
        states = env.reset()
        traj: Dict[int, RolloutBuffer] = {
            i: RolloutBuffer(rl_config.discount_factor, rl_config.gae_lambda)
            for i in states
        }
        done = False
        while not done:
            actions, meta = {}, {}
            for i, state in states.items():
                logits, values, _ = policy.net.forward(state)
                action, logp = choice_from_logits(logits[0], rng)
                actions[i] = action
                meta[i] = (state, action, logp, float(values[0]))
            states, rewards, done, _info = env.step(actions)
            for i, (state, action, logp, value) in meta.items():
                traj[i].add(state, action, logp, rewards[i], value)
            episode_rewards.append(float(np.mean(list(rewards.values()))))
            collected += len(actions)
        for buf in traj.values():
            buf.finish_path(0.0)
            buffers.append(buf)
    return buffers, episode_rewards


def collect_vector_episode(env, net, act_seq, rl_config) -> Tuple[List[RolloutBuffer], list]:
    pairs = [(k, i) for k in range(env.num_envs) for i in range(int(env.n_per_env[k]))]
    act_rngs = [np.random.default_rng(child) for child in act_seq.spawn(len(pairs))]
    states = env.reset()
    buffers = [
        RolloutBuffer(rl_config.discount_factor, rl_config.gae_lambda) for _ in pairs
    ]
    window_rewards = []
    done = False
    while not done:
        flat = states[env.mask]
        logits, values = net.forward_batch(flat)
        padded = np.zeros((env.num_envs, env.n_max), dtype=np.int64)
        picks = []
        for m, (k, i) in enumerate(pairs):
            action, logp = choice_from_logits(logits[m], act_rngs[m])
            padded[k, i] = action
            picks.append((action, logp))
        states, rewards, done, _info = env.step(padded)
        for m, (k, i) in enumerate(pairs):
            action, logp = picks[m]
            buffers[m].add(flat[m], action, logp, float(rewards[k, i]), float(values[m]))
        window_rewards.append(rewards)
    for buf in buffers:
        buf.finish_path(0.0)
    return buffers, window_rewards
