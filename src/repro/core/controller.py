"""FleetIO's deployment decision loop.

Every decision window (2 s by default) the controller:

1. snapshots each vSSD's monitor into :class:`WindowStats`;
2. computes Eq. 1 rewards from the window just finished, blends them with
   Eq. 2 (beta), and credits each agent's previous action;
3. classifies each vSSD's workload type from its recent trace (once
   enough requests accumulated) and installs the cluster's fine-tuned
   alpha;
4. featurizes the new state (Table 1 x 3 windows) and lets every agent
   pick its next action;
5. submits Harvest/Make_Harvestable/Set_Priority commands to admission
   control (Section 3.5) and pumps lazy gSB reclamation;
6. runs the agent's periodic PPO fine-tuning.

All of this is off the I/O critical path: it runs as simulator events
between request dispatches, exactly like the background Python agents in
the paper's prototype.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.config import CLUSTER_ALPHAS, RLConfig
from repro.core.actionspace import ActionSpace
from repro.core.agent import FleetIoAgent
from repro.core.reward import multi_agent_rewards, single_agent_reward
from repro.clustering.features import extract_features
from repro.profiling import PROFILER
from repro.sched.request import Priority

if TYPE_CHECKING:  # pragma: no cover
    from repro.clustering.classifier import WorkloadTypeClassifier
    from repro.core.monitor import VssdMonitor
    from repro.faults.guardrails import Guardrails
    from repro.rl.nets import PolicyValueNet
    from repro.virt.manager import StorageVirtualizer
    from repro.virt.vssd import Vssd


class FleetIoController:
    """Glues per-vSSD RL agents to the storage virtualizer."""

    #: Requests needed before attempting workload-type classification.
    CLASSIFY_MIN_REQUESTS = 2000

    def __init__(
        self,
        virtualizer: "StorageVirtualizer",
        pretrained_net: "PolicyValueNet",
        rl_config: Optional[RLConfig] = None,
        classifier: Optional["WorkloadTypeClassifier"] = None,
        explore: bool = False,
        finetune: bool = True,
        unified_alpha_only: bool = False,
        seed: int = 0,
        guardrails: Optional["Guardrails"] = None,
    ) -> None:
        self.virt = virtualizer
        self.rl_config = rl_config or RLConfig()
        self.classifier = classifier
        #: Optional fault-tolerance layer (repro.faults.guardrails).
        #: None keeps the raw FleetIO control loop byte-identical.
        self.guardrails = guardrails
        self.explore = explore
        self.finetune = finetune
        #: Fig. 15's FleetIO-Unified-Global: skip per-cluster alphas.
        self.unified_alpha_only = unified_alpha_only
        self._pretrained = pretrained_net
        self._rng = np.random.default_rng(seed)
        self.action_space = ActionSpace(
            self.virt.config.channel_write_bandwidth_mbps
        )
        self.agents: dict = {}
        self.monitors: dict = {}
        self._window_index = 0
        self._started = False
        self.window_log: list = []

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def register_vssd(
        self, vssd: "Vssd", monitor: "VssdMonitor", alpha: Optional[float] = None
    ) -> FleetIoAgent:
        """Deploy an RL agent on a vSSD (Section 3.8: one per instance),
        reading the windows of the vSSD's one (already wired) monitor."""
        agent = FleetIoAgent(
            vssd,
            self._pretrained.clone(),
            self.action_space,
            config=self.rl_config,
            alpha=alpha,
            rng=np.random.default_rng(self._rng.integers(2**63)),
            explore=self.explore,
            finetune=self.finetune,
        )
        self.agents[vssd.vssd_id] = agent
        self.monitors[vssd.vssd_id] = monitor
        if self.guardrails is not None:
            self.guardrails.register(vssd.vssd_id, vssd.name)
        return agent

    def start(self) -> None:
        """Begin the periodic decision loop and admission batching."""
        if self._started:
            return
        self._started = True
        self.virt.admission.start()
        interval_us = self.rl_config.decision_interval_s * 1_000_000.0
        self.virt.sim.schedule(interval_us, self._window_tick)

    def stop(self) -> None:
        """Halt the periodic decision loop."""
        self._started = False

    # ------------------------------------------------------------------
    # The decision loop
    # ------------------------------------------------------------------
    def _window_tick(self) -> None:
        if not self._started:
            return
        self.run_window()
        interval_us = self.rl_config.decision_interval_s * 1_000_000.0
        self.virt.sim.schedule(interval_us, self._window_tick)

    def run_window(self) -> dict:
        """Execute one decision window; returns per-vSSD window stats."""
        PROFILER.count("rl.decision_windows")
        now_s = self.virt.sim.now_seconds
        stats = {
            vssd_id: monitor.snapshot_window(now_s)
            for vssd_id, monitor in self.monitors.items()
        }
        if self.guardrails is not None:
            stats = {
                vssd_id: self.guardrails.sanitize(vssd_id, window, now_s)
                for vssd_id, window in stats.items()
            }
        self._credit_rewards(stats)
        if self.guardrails is not None:
            self._run_watchdogs(stats, now_s)
        self._classify_workloads()
        actions = {}
        deciding = []
        for vssd_id, agent in self.agents.items():
            if self.guardrails is not None and self.guardrails.suspended(vssd_id):
                # Graceful degradation: the safe policy is a no-op — no
                # harvesting, no priority churn, nothing to learn from.
                actions[vssd_id] = None
                continue
            others = [stats[v] for v in stats if v != vssd_id]
            state = agent.featurizer.push(
                stats[vssd_id], others, self.guaranteed_bandwidth(vssd_id)
            )
            deciding.append((vssd_id, agent, state))
        precomputed = self._batched_inference(deciding)
        for vssd_id, agent, state in deciding:
            action_index = agent.decide(state, precomputed=precomputed.get(vssd_id))
            if self.guardrails is not None:
                action_index = self.guardrails.clamp_action(
                    vssd_id, action_index, self.action_space
                )
            actions[vssd_id] = action_index
            self.virt.admission.submit(
                self.action_space.to_command(action_index, vssd_id)
            )
        self.virt.gsb_manager.pump_reclaims()
        for agent in self.agents.values():
            agent.end_window()
        self._window_index += 1
        self.window_log.append({"stats": stats, "actions": actions})
        return stats

    def _batched_inference(self, deciding: list) -> dict:
        """One forward pass per group of agents with identical parameters.

        Collocated agents deploy as clones of the same pre-trained net
        (Section 3.8: one agent per vSSD), so until online fine-tuning
        diverges them, their sanitized observations stack into a single
        matrix served by one trunk evaluation instead of N scalar passes.
        Grouping keys on ``PolicyValueNet.params_version`` — equal tokens
        guarantee bit-identical parameters — and ``forward_batch``
        guarantees per-row results identical to per-agent forwards, so
        the only change is fewer passes, not different decisions.  Each
        agent still samples from its own named RNG stream in ``decide``.

        Returns ``{vssd_id: (logits_row, value)}`` for batched agents;
        agents in singleton groups are omitted and run their own forward.
        """
        groups: dict = {}
        for entry in deciding:
            groups.setdefault(entry[1].net.params_version, []).append(entry)
        precomputed: dict = {}
        for members in groups.values():
            if len(members) < 2:
                continue
            net = members[0][1].net
            stacked = np.stack(
                [np.asarray(state, dtype=np.float64) for _v, _a, state in members]
            )
            logits, values = net.forward_batch(stacked)
            PROFILER.count("rl.batched_decisions", len(members))
            for i, (vssd_id, _agent, _state) in enumerate(members):
                precomputed[vssd_id] = (logits[i], values[i])
        return precomputed

    def _run_watchdogs(self, stats: dict, now_s: float) -> None:
        """Advance each vSSD's watchdog and apply state transitions."""
        for vssd_id, agent in self.agents.items():
            transition = self.guardrails.observe(vssd_id, stats[vssd_id], now_s)
            if transition == "fallback":
                vssd = agent.vssd
                vssd.degraded = True
                agent.abort_window()
                agent.featurizer.reset()
                self.virt.gsb_manager.release_harvested(vssd)
                self.virt.set_priority(vssd_id, Priority.MEDIUM)
            elif transition == "reenable":
                agent.vssd.degraded = False

    def _credit_rewards(self, stats: dict) -> None:
        singles = {}
        for vssd_id, agent in self.agents.items():
            window = stats[vssd_id]
            singles[vssd_id] = single_agent_reward(
                window.avg_bw_mbps,
                window.slo_violation_frac,
                guaranteed_bw_mbps=self.guaranteed_bandwidth(vssd_id),
                alpha=agent.alpha,
                slo_violation_guarantee=self.rl_config.slo_violation_guarantee,
            )
        blended = multi_agent_rewards(singles, self.rl_config.beta)
        for vssd_id, agent in self.agents.items():
            agent.observe_reward(blended[vssd_id])

    def guaranteed_bandwidth(self, vssd_id: int) -> float:
        """Avg_BW_guar: the bandwidth of the vSSD's allocated resources.

        For a hardware-isolated vSSD this is channels x per-channel
        bandwidth; for a software-isolated one, its block share of each
        channel's bandwidth.
        """
        agent = self.agents[vssd_id]
        ftl = agent.vssd.ftl
        per_channel_blocks = self.virt.config.blocks_per_channel
        chan_bw = self.virt.config.channel_write_bandwidth_mbps
        total = 0.0
        for _channel_id, owned in ftl._own_blocks_per_channel.items():
            total += chan_bw * min(owned / per_channel_blocks, 1.0)
        return max(total, 1e-6)

    def _classify_workloads(self) -> None:
        if self.classifier is None or self.unified_alpha_only:
            return
        for vssd_id, agent in self.agents.items():
            if agent.cluster is not None:
                continue
            monitor = self.monitors[vssd_id]
            trace = monitor.recent_trace
            if len(trace) < self.CLASSIFY_MIN_REQUESTS:
                continue
            rows = np.asarray(trace, dtype=np.float64)
            features = extract_features(
                rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3],
                page_size=self.virt.config.page_size,
            )
            label = self.classifier.predict_label(features[None, :])
            if label is None:
                # Unknown type: keep the unified reward; the paper marks
                # the workload for offline tuning (Section 3.4).
                agent.cluster = "unknown"
                continue
            agent.cluster = label
            agent.alpha = CLUSTER_ALPHAS.get(label, self.rl_config.unified_alpha)
