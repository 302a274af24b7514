"""Guardrailed replay of discovered scenarios, and regression cells.

A scenario the search flags as high-regret is only useful if it can be
*replayed*: same genome, same seed, same policy, byte-identical
telemetry, forever.  :func:`replay_genome` runs the protagonist through
the scenario on the scalar :class:`~repro.core.fast_env.FastFleetEnv`
with the full guardrail stack from :mod:`repro.faults.guardrails`
active — sanitization, watchdog fallback (mirroring the DES
controller's degradation semantics: harvested channels returned,
priority reset to MEDIUM, agent suspended on the safe no-op action),
and trust-based action clamping — and hashes every window's telemetry
into a digest.

A **regression cell** is a committed JSON document holding the genome,
its search provenance, and the expected replay digest plus guardrail
counters.  ``verify_cell`` replays it and reports divergences; the
tier-1 suite runs every committed cell, so a change that shifts the
analytic envs, the guardrails, or the policy forward pass under these
known-hard scenarios fails loudly (same policy as the committed
single-run telemetry digest in ``tests/integration/test_canonical_digest.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.adversarial.genome import ScenarioGenome
from repro.adversarial.search import resolve_protagonist
from repro.config import RLConfig, SSDConfig
from repro.core.actionspace import ActionSpace
from repro.core.fast_env import FastFleetEnv
from repro.faults.guardrails import GuardrailConfig, Guardrails
from repro.rl.policy import CategoricalPolicy
from repro.sched.request import Priority

#: Regression-cell document schema version.
CELL_SCHEMA_VERSION = 1


@dataclass
class ReplayResult:
    """Telemetry and guardrail behaviour of one guardrailed replay."""

    digest: str
    telemetry: List[str]
    mean_reward: float
    mean_violation: float
    fallbacks: int
    suspended_windows: int
    max_collapse_streak: int


def _safe_action(action_space: ActionSpace) -> int:
    """The no-op safe action a suspended agent takes (priority MEDIUM)."""
    return action_space.index_of("set_priority", int(Priority.MEDIUM))


def replay_genome(
    genome: ScenarioGenome,
    protagonist_params: Mapping[str, np.ndarray],
    *,
    seed: int,
    episodes: int = 2,
    rl_config: Optional[RLConfig] = None,
    ssd_config: Optional[SSDConfig] = None,
    guardrail_config: Optional[GuardrailConfig] = None,
) -> ReplayResult:
    """Deterministic guardrailed replay of a scenario.

    Per window and tenant the telemetry line records the action taken,
    reward, raw SLO violation, watchdog state *before* observing the
    window, and any transition the window triggered; ``repr`` renders
    the floats, so the digest is sensitive to the last bit.
    """
    from repro.adversarial.search import _net_from_params

    rl_config = rl_config or RLConfig()
    ssd_config = ssd_config or SSDConfig()
    genome.validate(ssd_config.num_channels)
    action_space = ActionSpace(ssd_config.channel_write_bandwidth_mbps)
    policy = CategoricalPolicy(
        _net_from_params(protagonist_params, rl_config, action_space.num_actions)
    )
    safe = _safe_action(action_space)
    cfg = guardrail_config or GuardrailConfig()
    profile = genome.fault_profile()

    telemetry: List[str] = []
    rewards: List[float] = []
    violations: List[float] = []
    fallbacks = 0
    suspended_windows = 0
    max_collapse_streak = 0
    for episode, seq in enumerate(np.random.SeedSequence(seed).spawn(episodes)):
        env = FastFleetEnv(
            genome.specs(ssd_config),
            rl_config,
            ssd_config,
            np.random.default_rng(seq),
            episode_windows=genome.episode_windows,
            fault_profile=profile,
        )
        guards = Guardrails(cfg)
        for i, name in enumerate(genome.tenant_names):
            guards.register(i, name)
        # Independent collapse accounting from the raw violation series:
        # the watchdog must fire before any tenant stays collapsed
        # longer than ``collapse_windows`` while still under RL control.
        streaks = [0] * env.n
        states = env.reset()
        done = False
        window = 0
        while not done:
            actions: Dict[int, int] = {}
            for i, state in states.items():
                if guards.suspended(i):
                    actions[i] = safe
                    suspended_windows += 1
                else:
                    proposed = policy.act_deterministic(state)
                    actions[i] = guards.clamp_action(i, proposed, action_space)
            states, step_rewards, done, info = env.step(actions)
            for i in range(env.n):
                stats = guards.sanitize(i, info["stats"][i], env.time_s)
                pre_state = guards.watchdogs[i].state.value
                was_suspended = guards.suspended(i)
                transition = guards.observe(i, stats, env.time_s)
                raw_violation = float(info["stats"][i].slo_violation_frac)
                collapsed = (
                    info["stats"][i].completed > 0
                    and raw_violation > cfg.collapse_violation_frac
                )
                if collapsed and not was_suspended:
                    streaks[i] += 1
                    max_collapse_streak = max(max_collapse_streak, streaks[i])
                else:
                    streaks[i] = 0
                if transition == "fallback":
                    fallbacks += 1
                    # Mirror the DES controller's degradation semantics:
                    # return every harvested channel and reset priority.
                    env.harvested[i, :] = 0
                    env.priority[i] = Priority.MEDIUM
                reward = float(step_rewards[i])
                rewards.append(reward)
                violations.append(raw_violation)
                telemetry.append(
                    f"{episode},{window},{i},{actions[i]},{reward!r},"
                    f"{raw_violation!r},{pre_state},{transition or ''}"
                )
            window += 1
    digest = hashlib.sha256("\n".join(telemetry).encode("utf-8")).hexdigest()
    return ReplayResult(
        digest=digest,
        telemetry=telemetry,
        mean_reward=float(np.mean(rewards)) if rewards else 0.0,
        mean_violation=float(np.mean(violations)) if violations else 0.0,
        fallbacks=fallbacks,
        suspended_windows=suspended_windows,
        max_collapse_streak=max_collapse_streak,
    )


# ----------------------------------------------------------------------
# Regression cells
# ----------------------------------------------------------------------
def make_cell(
    genome: ScenarioGenome,
    protagonist_spec: Mapping[str, Any],
    replay: ReplayResult,
    *,
    seed: int,
    episodes: int,
    provenance: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a committable regression-cell document."""
    return {
        "schema": CELL_SCHEMA_VERSION,
        "cell_id": f"adv-{genome.digest}",
        "genome": genome.to_dict(),
        "provenance": dict(provenance or {}),
        "replay": {
            "seed": seed,
            "episodes": episodes,
            "protagonist": dict(protagonist_spec),
            "digest": replay.digest,
            "fallbacks": replay.fallbacks,
            "suspended_windows": replay.suspended_windows,
            "max_collapse_streak": replay.max_collapse_streak,
            "mean_violation": round(replay.mean_violation, 6),
        },
    }


def write_cell(cell: Mapping[str, Any], directory: Union[str, Path]) -> Path:
    """Write a cell document to ``<directory>/<cell_id>.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{cell['cell_id']}.json"
    path.write_text(json.dumps(cell, indent=2, sort_keys=True) + "\n")
    return path


def load_cell(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and schema-check one committed cell document."""
    data = json.loads(Path(path).read_text())
    schema = data.get("schema")
    if schema != CELL_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported cell schema {schema!r} in {path} "
            f"(this build reads version {CELL_SCHEMA_VERSION})"
        )
    return data


def replay_cell(cell: Mapping[str, Any]) -> ReplayResult:
    """Replay a cell document with its recorded policy and seed."""
    genome = ScenarioGenome.from_dict(cell["genome"])
    replay_spec = cell["replay"]
    params = resolve_protagonist(replay_spec["protagonist"])
    return replay_genome(
        genome,
        params,
        seed=int(replay_spec["seed"]),
        episodes=int(replay_spec["episodes"]),
    )


def verify_cell(cell: Mapping[str, Any]) -> List[str]:
    """Replay a cell and report every divergence from its record.

    Returns an empty list when the replay is byte-identical and the
    guardrail contract holds; otherwise one message per violation.
    """
    result = replay_cell(cell)
    expected = cell["replay"]
    problems: List[str] = []
    if result.digest != expected["digest"]:
        problems.append(
            f"telemetry digest {result.digest[:12]}... != committed "
            f"{expected['digest'][:12]}... — the analytic envs, guardrails, "
            "or policy forward pass changed; if intended, regenerate cells "
            "with `repro adversarial --emit-cells`"
        )
    if result.fallbacks != expected["fallbacks"]:
        problems.append(
            f"fallbacks {result.fallbacks} != committed {expected['fallbacks']}"
        )
    cfg = GuardrailConfig()
    if result.max_collapse_streak > cfg.collapse_windows:
        problems.append(
            f"a tenant stayed collapsed {result.max_collapse_streak} windows "
            f"under RL control (watchdog bound is {cfg.collapse_windows})"
        )
    return problems
