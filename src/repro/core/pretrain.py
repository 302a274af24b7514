"""Offline PPO pre-training (Section 3.8).

The paper pre-trains one PPO model on a set of workloads (LiveMaps, TPCE,
SearchEngine, Batch Analytics) that are *not* used in the evaluation,
running them on a simulator (WiscSim) to work around scarce hardware.
We do the same on :class:`~repro.core.fast_env.FastFleetEnv`: episodes
sample random collocations of the training workloads, all agents share
one policy network during pre-training, and the trained network is then
cloned per vSSD at deployment.

Rollouts can be collected two ways:

* ``envs=1`` — the reference scalar path: one environment at a time.
  Per window the env's agents' states go through one
  ``PolicyValueNet.forward_batch`` and one ``rng.random(M)`` on the run's
  stream supplies the M uniforms that M per-agent ``policy.act`` calls
  would draw, so the trained net is bit-identical to the per-agent form.
* ``envs=K`` — the vectorized engine: K collocations step in lockstep
  inside a :class:`~repro.core.vector_env.VectorFastFleetEnv`, and all
  live agents' states across the fleet go through a single
  ``forward_batch`` call per window.  Each agent keeps its own
  ``SeedSequence.spawn``-derived action stream and draws one uniform
  from it per window; one inverse CDF over the ``(M, A)`` logits batch
  (``CategoricalPolicy.sample_batch``) turns them into actions, so
  per-agent exploration stays stream-isolated and a run is reproducible
  from its seed alone.  An iteration's last lockstep episode steps only
  the envs it needs to reach ``rollout_batch``.

Both engines sample with ``rng.random()`` plus an inverse CDF, which is
bit-identical to ``rng.choice(A, p=probs)`` and several times cheaper.

``pretrain_best`` runs its seed search as one pre-training cell per seed
(:mod:`repro.parallel`): in-process, or across worker processes (crash
isolation, seed-order selection) when asked for ``workers > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import CLUSTER_ALPHAS, RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.core.fast_env import FastFleetEnv, FastVssdSpec
from repro.core.vector_env import VectorFastFleetEnv
from repro.profiling import PROFILER
from repro.rl.buffer import RolloutBuffer
from repro.rl.nets import PolicyValueNet
from repro.rl.policy import CategoricalPolicy
from repro.rl.ppo import PpoTrainer
from repro.workloads.catalog import CLUSTER_GROUND_TRUTH, TRAINING_WORKLOADS, get_spec

#: Version of the collocation sampler.  Part of the pre-trained policy's
#: cache key: a change to how training mixes are drawn (e.g. the v2
#: remainder-channel fix) produces a different artifact from the same
#: seed, and stale caches must not survive it.
SAMPLER_VERSION = 2

#: Version of the ``envs > 1`` rollout collector.  Part of the cache key
#: of policies trained on that engine only, so the ``envs=1`` keys stay
#: as they were.  Version 2 steps only as many envs in an iteration's last
#: lockstep episode as reach ``rollout_batch``, which changes what an
#: ``envs > 1`` run trains from the same seed.
LOCKSTEP_VERSION = 2


@dataclass
class PretrainResult:
    """Artifact of one pre-training run: the network and reward curve."""

    net: PolicyValueNet
    mean_rewards: List[float] = field(default_factory=list)
    best_reward: float = float("-inf")
    best_iteration: int = -1


def coef_at(
    iteration: int,
    iterations: int,
    schedule: Tuple[Tuple[float, float], ...],
) -> float:
    """Interference coefficient of the curriculum stage at an iteration.

    ``schedule`` is ``((progress_fraction, coef), ...)`` stages; the
    iteration's progress ``(iteration + 1) / iterations`` selects the
    first stage whose fraction it does not exceed, so a boundary
    iteration (progress exactly equal to a fraction) still belongs to
    that stage.  Progress past the last fraction falls through to the
    final stage's coefficient.
    """
    progress = (iteration + 1) / iterations
    for fraction, coef in schedule:
        if progress <= fraction:
            return coef
    return schedule[-1][1]


def _sample_collocation(
    rng: np.random.Generator, ssd_config: SSDConfig
) -> List[FastVssdSpec]:
    """Random 2-8 tenant mix of training workloads on the shared SSD.

    Two-tenant mixes dominate (the paper's standard collocation) so the
    policy masters the base case; larger mixes — down to two channels per
    tenant — teach the scalability cases of Figure 14.

    Every channel of the device is assigned: when ``num_channels`` does
    not divide evenly (3- and 6-tenant mixes on 16 channels), the
    remainder channels go to the first ``num_channels % n`` tenants, one
    each, deterministically — the earlier ``num_channels // n`` split
    silently stranded up to n-1 channels, training on a smaller device
    than the one deployed.
    """
    n = int(rng.choice([2, 2, 2, 2, 2, 3, 4, 6, 8]))
    names = [str(rng.choice(TRAINING_WORKLOADS)) for _ in range(n)]
    # Ensure at least one latency-sensitive and one bandwidth workload so
    # harvesting opportunities exist in both directions.
    names[0] = str(rng.choice(["livemaps", "tpce", "searchengine"]))
    names[-1] = "batchanalytics"
    base, remainder = divmod(ssd_config.num_channels, n)
    specs = []
    for index, name in enumerate(names):
        workload = get_spec(name)
        cluster = CLUSTER_GROUND_TRUTH.get(name, "LC-1")
        specs.append(
            FastVssdSpec(
                workload=workload,
                channels=base + (1 if index < remainder else 0),
                alpha=CLUSTER_ALPHAS.get(cluster, 0.01),
            )
        )
    return specs


def apply_reward_ablation(
    specs: List[FastVssdSpec], alpha_override: Optional[float]
) -> List[FastVssdSpec]:
    """Install a single unified alpha on every spec (Fig. 15's
    FleetIO-Unified-Global trains without per-cluster fine-tuning).

    Mutates the specs in place (and returns the same list): a ``None``
    override leaves the per-cluster alphas untouched.
    """
    if alpha_override is None:
        return specs
    for spec in specs:
        spec.alpha = alpha_override
    return specs


def _collect_scalar(
    policy: CategoricalPolicy,
    rng: np.random.Generator,
    rl_config: RLConfig,
    ssd_config: SSDConfig,
    episode_windows: int,
    rollout_batch: int,
    interference_coef: float,
    alpha_override: Optional[float],
) -> Tuple[List[RolloutBuffer], List[float]]:
    """Reference rollout collection: one scalar env at a time, one
    batched forward per window over that env's agents."""
    buffers: List[RolloutBuffer] = []
    episode_rewards: List[float] = []
    collected = 0
    while collected < rollout_batch:
        specs = apply_reward_ablation(
            _sample_collocation(rng, ssd_config), alpha_override
        )
        env = FastFleetEnv(
            specs,
            rl_config,
            ssd_config,
            rng,
            episode_windows=episode_windows,
            interference_coef=interference_coef,
        )
        states = env.reset()
        windows: List[Tuple[np.ndarray, ...]] = []
        done = False
        while not done:
            # One batched forward and one rng.random(M) per window: the M
            # uniforms are the draws M per-agent act() calls consumed, in
            # agent order and ahead of env.step's own draws.
            ids = list(states)
            batch = np.array([states[i] for i in ids], dtype=np.float64)
            logits, values = policy.net.forward_batch(batch)
            actions, logps = policy.sample_batch(logits, rng.random(len(ids)))
            states, rewards, done, _info = env.step(dict(zip(ids, actions.tolist())))
            windows.append(
                (batch, actions, logps, np.array([rewards[i] for i in ids]), values)
            )
            episode_rewards.append(float(np.mean(list(rewards.values()))))
            collected += len(ids)
            PROFILER.count("pretrain.windows")
            PROFILER.count("pretrain.transitions", len(ids))
        buffers.extend(_agent_buffers(windows, rl_config))
    return buffers, episode_rewards


def _agent_buffers(
    windows: List[Tuple[np.ndarray, ...]], rl_config: RLConfig
) -> List[RolloutBuffer]:
    """One finished buffer per agent from an episode's window batches.

    ``windows`` holds one ``(states, actions, log_probs, rewards,
    values)`` tuple of arrays per window, one row per agent in a fixed
    order; agent ``m``'s buffer takes row ``m`` of every window in one
    ``add_batch`` (bit-identical to per-step ``add``).
    """
    columns = [np.stack(field) for field in zip(*windows)]  # (T, M, ...)
    buffers = []
    for m in range(columns[1].shape[1]):
        buf = RolloutBuffer(rl_config.discount_factor, rl_config.gae_lambda)
        buf.add_batch(*(column[:, m] for column in columns))
        buf.finish_path(0.0)
        buffers.append(buf)
    return buffers


def collect_vector_episode(
    env: VectorFastFleetEnv,
    net: PolicyValueNet,
    policy: CategoricalPolicy,
    act_seq: np.random.SeedSequence,
    rl_config: RLConfig,
) -> Tuple[List[RolloutBuffer], List[np.ndarray]]:
    """Run one episode of a lockstep env fleet under a shared policy.

    Per window, one ``forward_batch`` over every live agent's state
    replaces per-agent ``forward`` calls; each agent draws one uniform
    from its own stream spawned from ``act_seq``, and one inverse CDF
    over the whole logits batch turns them into actions
    (``sample_batch``, bit-identical to per-agent ``act_from_logits``).
    Returns one finished :class:`~repro.rl.buffer.RolloutBuffer` per
    agent, env-major, filled by a single ``add_batch``, and each
    window's ``(K, n_max)`` reward array.
    """
    act_rngs = [
        np.random.default_rng(child) for child in act_seq.spawn(env.num_agents)
    ]
    states = env.reset()
    windows: List[Tuple[np.ndarray, ...]] = []
    window_rewards: List[np.ndarray] = []
    done = False
    while not done:
        flat = states[env.mask]  # (agents, state_dim), env-major
        logits, values = net.forward_batch(flat)
        uniforms = np.array([act_rng.random() for act_rng in act_rngs])
        actions, logps = policy.sample_batch(logits, uniforms)
        padded = np.zeros((env.num_envs, env.n_max), dtype=np.int64)
        padded[env.mask] = actions
        states, rewards, done, _info = env.step(padded)
        windows.append((flat, actions, logps, rewards[env.mask], values))
        window_rewards.append(rewards)
    return _agent_buffers(windows, rl_config), window_rewards


def _collect_vectorized(
    net: PolicyValueNet,
    policy: CategoricalPolicy,
    colloc_rng: np.random.Generator,
    env_seq: np.random.SeedSequence,
    act_seq: np.random.SeedSequence,
    rl_config: RLConfig,
    ssd_config: SSDConfig,
    envs: int,
    episode_windows: int,
    rollout_batch: int,
    interference_coef: float,
    alpha_override: Optional[float],
) -> Tuple[List[RolloutBuffer], List[float]]:
    """Vectorized rollout collection: :func:`collect_vector_episode` over
    freshly sampled collocations until ``rollout_batch`` transitions.

    Collocations are drawn one at a time, and an episode stops adding
    envs once the ones it has reach ``rollout_batch``: the last episode
    of an iteration steps only the ``1 <= K' <= envs`` envs it needs, so
    the overshoot is less than one env's episode.  Every episode runs to
    its end (no truncation, no bootstrap).
    """
    buffers: List[RolloutBuffer] = []
    episode_rewards: List[float] = []
    collected = 0
    while collected < rollout_batch:
        spec_lists: List[List[FastVssdSpec]] = []
        planned = collected
        while len(spec_lists) < envs and planned < rollout_batch:
            specs = apply_reward_ablation(
                _sample_collocation(colloc_rng, ssd_config), alpha_override
            )
            spec_lists.append(specs)
            planned += len(specs) * episode_windows
        env = VectorFastFleetEnv(
            spec_lists,
            rl_config,
            ssd_config,
            rngs=[
                np.random.default_rng(child)
                for child in env_seq.spawn(len(spec_lists))
            ],
            episode_windows=episode_windows,
            interference_coef=interference_coef,
        )
        episode, window_rewards = collect_vector_episode(
            env, net, policy, act_seq, rl_config
        )
        buffers.extend(episode)
        for rewards in window_rewards:
            for k in range(env.num_envs):
                live = int(env.n_per_env[k])
                episode_rewards.append(float(np.mean(rewards[k, :live])))
        transitions = len(episode) * len(window_rewards)
        collected += transitions
        PROFILER.count("rl.batched_decisions", transitions)
        PROFILER.count("pretrain.windows", env.num_envs * len(window_rewards))
        PROFILER.count("pretrain.transitions", transitions)
    return buffers, episode_rewards


def pretrain(
    iterations: int = 300,
    seed: int = 0,
    rl_config: Optional[RLConfig] = None,
    ssd_config: Optional[SSDConfig] = None,
    episode_windows: int = 20,
    rollout_batch: int = 512,
    learning_rate: Optional[float] = 5e-4,
    interference_schedule: Tuple[Tuple[float, float], ...] = ((0.5, 3.0), (1.0, 7.0)),
    alpha_override: Optional[float] = None,
    envs: int = 1,
    verbose: bool = False,
) -> PretrainResult:
    """Pre-train a shared policy on the fast environment.

    ``rollout_batch`` mirrors the paper's training batch of 256 samples
    per iteration (Section 3.8); ``iterations`` defaults far below the
    paper's 2,000 because the fast env converges quickly.  Pre-training
    uses a larger learning rate than Table 3's deployment fine-tuning
    rate (1e-4) to converge within the smaller iteration budget.

    ``interference_schedule`` is a curriculum of (progress fraction,
    interference coefficient) stages: early training runs with mild
    cross-tenant interference so agents discover harvesting and offering;
    later stages harden interference so latency agents learn to defend
    their SLO with Set_Priority.  Without the curriculum the joint
    behaviour sits behind a reward valley (offering without priority
    protection is strictly worse than doing nothing) that independent
    PPO agents rarely cross.

    ``envs`` selects the collection engine: 1 is the reference scalar
    path (which also batches inference, one ``forward_batch`` per window
    over the env's agents); K > 1 steps K collocations in lockstep with
    one ``forward_batch`` per window over the whole fleet.  Training
    quality is the same.  Measured throughput, 10 iterations of 512
    requested transitions in 5-window episodes at seed 0 on a shared
    2-core Xeon (median of 8 runs): ~5.0 k requested transitions/s with
    ``envs=1`` and ~6.2 k with ``envs=8``.  The lockstep engine gains
    least where the GEMM row-stability probe rejects its batch shapes
    and ``forward_batch`` falls back to per-row products.  The
    ``pretrain_ppo`` workload of ``BENCHMARK.json`` times both.  The two
    engines draw different exploration streams, so their trained
    policies are equivalent in quality, not bit-identical.
    """
    from dataclasses import replace as _replace

    if envs < 1:
        raise ValueError(f"envs must be >= 1, got {envs}")
    rl_config = rl_config or RLConfig()
    if learning_rate is not None:
        rl_config = _replace(rl_config, learning_rate=learning_rate)
    ssd_config = ssd_config or SSDConfig()
    rng = np.random.default_rng(seed)
    sample_state_dim = rl_config.state_dim
    action_space = ActionSpace(ssd_config.channel_write_bandwidth_mbps)
    net = PolicyValueNet(
        sample_state_dim,
        action_space.num_actions,
        rl_config.hidden_layer_sizes,
        rng=rng,
    )
    policy = CategoricalPolicy(net)
    trainer = PpoTrainer(net, rl_config, rng)
    result = PretrainResult(net=net)
    best_params: Optional[Dict[str, np.ndarray]] = None
    if envs > 1:
        # Streams for the vectorized engine: one root sequence per run,
        # split into collocation sampling / env dynamics / per-agent
        # action sampling so the three never alias.
        colloc_seq, env_seq, act_seq = np.random.SeedSequence(seed).spawn(3)
        colloc_rng = np.random.default_rng(colloc_seq)

    for iteration in range(iterations):
        coef = coef_at(iteration, iterations, interference_schedule)
        if envs > 1:
            buffers, episode_rewards = _collect_vectorized(
                net,
                policy,
                colloc_rng,
                env_seq,
                act_seq,
                rl_config,
                ssd_config,
                envs,
                episode_windows,
                rollout_batch,
                coef,
                alpha_override,
            )
        else:
            buffers, episode_rewards = _collect_scalar(
                policy,
                rng,
                rl_config,
                ssd_config,
                episode_windows,
                rollout_batch,
                coef,
                alpha_override,
            )
        merged = _merge_buffers(buffers, rl_config)
        trainer.update(merged)
        result.mean_rewards.append(float(np.mean(episode_rewards)))
        # Periodically evaluate greedily on fixed scenarios and keep the
        # best checkpoint, so a late plateau wobble cannot degrade the
        # deployed policy.
        if iteration % 20 == 19 or iteration == iterations - 1:
            score = _evaluate_greedy(policy, rl_config, ssd_config)
            if score > result.best_reward:
                result.best_reward = score
                result.best_iteration = iteration
                best_params = {k: v.copy() for k, v in net.params.items()}
        if verbose and iteration % 20 == 0:  # pragma: no cover - logging
            print(f"iter {iteration}: reward {result.mean_rewards[-1]:.3f}")
    if result.best_iteration >= 0 and best_params is not None:
        net.params = best_params
    return result


def pretrain_best(
    seeds: Tuple[int, ...] = (7, 11, 23, 31, 47),
    iterations: int = 600,
    workers: Optional[int] = None,
    **kwargs: object,
) -> PretrainResult:
    """Pre-train with several seeds and keep the best greedy-eval policy.

    Cooperative multi-agent PPO is seed-sensitive; the paper side-steps
    this with a 2,000-iteration Ray run, we side-step it by selecting
    across a few shorter runs with the fixed-scenario greedy evaluation.

    Each seed is one :class:`~repro.parallel.matrix.PretrainCell`.  With
    ``workers > 1`` the cells fan out over the persistent worker pool
    (crash-isolated, reusing :mod:`repro.parallel`); otherwise they run
    in-process through :func:`~repro.parallel.runner.run_serial`.
    Selection happens in seed order either way, so the winner is the
    same no matter which worker finishes first.  A failed seed (a raising
    run, or a worker crash) is skipped; only a search in which every
    seed fails raises ``RuntimeError``.  Extra keyword arguments
    (``envs=...``, ``rl_config=...``) pass through to :func:`pretrain`.
    """
    # Deferred: repro.parallel imports the harness, which imports this
    # module through repro.harness.pretrained.
    from repro.parallel.matrix import PretrainCell
    from repro.parallel.runner import CellFailure, ParallelRunner, run_serial

    seeds = tuple(seeds)
    options = tuple(sorted(kwargs.items(), key=lambda item: item[0]))
    cells = [
        PretrainCell(seed=seed, iterations=iterations, options=options)
        for seed in seeds
    ]
    if workers is not None and workers > 1 and len(seeds) > 1:
        # Persistent pool: with more seeds than workers, a long-lived
        # worker runs several seeds, paying process startup and the
        # training-stack import once instead of per seed.
        sweep = ParallelRunner(workers=workers).run(cells)
    else:
        # In-process, the profiler counts (or not) as the caller set it.
        sweep = run_serial(cells, profile=False)
    best: Optional[PretrainResult] = None
    for outcome in sweep.outcomes:
        if isinstance(outcome, CellFailure):
            continue
        # Fold a worker's counters into this process, so a profiled
        # pooled search reports like a serial one (a serial outcome
        # carries none: its counts already landed here).
        PROFILER.absorb(outcome.profile)
        result = outcome.result
        assert isinstance(result, PretrainResult)
        if best is None or result.best_reward > best.best_reward:
            best = result
    if best is None:
        details = "; ".join(f.describe() for f in sweep.failures)
        raise RuntimeError(f"all pre-training seeds failed: {details}")
    return best


#: Fixed evaluation collocations for checkpoint selection: the standard
#: two-tenant pairs plus one 8-tenant mix (the Figure 14 regime).
_EVAL_SCENARIOS: Tuple[Tuple[str, ...], ...] = (
    ("livemaps", "batchanalytics"),
    ("tpce", "batchanalytics"),
    ("searchengine", "batchanalytics"),
    ("livemaps", "tpce", "searchengine", "livemaps",
     "batchanalytics", "batchanalytics", "batchanalytics", "batchanalytics"),
)


def _evaluate_greedy(
    policy: CategoricalPolicy, rl_config: RLConfig, ssd_config: SSDConfig
) -> float:
    """Mean blended reward of the greedy policy on fixed scenarios."""
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
            specs,
            rl_config,
            ssd_config,
            np.random.default_rng(1000 + index),
            episode_windows=30,
        )
        states = env.reset()
        done = False
        while not done:
            # One forward_batch per window (bit-identical rows, so the
            # argmax equals per-agent act_deterministic).
            ids = list(states)
            logits, _values = policy.net.forward_batch(
                np.array([states[i] for i in ids], dtype=np.float64)
            )
            actions = dict(zip(ids, np.argmax(logits, axis=1).tolist()))
            states, rewards, done, _info = env.step(actions)
            totals.append(float(np.mean(list(rewards.values()))))
    return float(np.mean(totals))


def _merge_buffers(
    buffers: List[RolloutBuffer], rl_config: RLConfig
) -> RolloutBuffer:
    """Merge per-agent trajectories, normalizing advantages per agent.

    Agents see rewards on very different scales (a capacity-bound batch
    job's utilization term spans ~1.0; a latency service's barely moves),
    so normalizing across the merged batch would crush the smaller
    agents' learning signal.

    The merge itself is vectorized: each buffer's advantages normalize in
    one array expression, and the transition arrays concatenate into the
    merged buffer in a single bulk append — value-identical to appending
    buffer by buffer, since per-agent normalization only ever looks at
    one buffer's advantages.
    """
    merged = RolloutBuffer(rl_config.discount_factor, rl_config.gae_lambda)
    filled = [buf for buf in buffers if len(buf)]
    if not filled:
        return merged
    normalized = []
    for buf in filled:
        adv = np.asarray(buf.advantages)
        if len(adv) > 1:
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        normalized.append(adv)
    merged.append_finished(
        np.concatenate([buf.states for buf in filled]),
        np.concatenate([buf.actions for buf in filled]),
        np.concatenate([buf.log_probs for buf in filled]),
        np.concatenate([buf.rewards for buf in filled]),
        np.concatenate([buf.values for buf in filled]),
        np.concatenate(normalized),
        np.concatenate([np.asarray(buf.returns) for buf in filled]),
    )
    return merged
