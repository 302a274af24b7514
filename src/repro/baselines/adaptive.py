"""The Adaptive baseline (Section 4.1, after eZNS).

"The number of flash channels allocated to vSSDs in each time window is
proportional to their bandwidth utilization in the prior time window."

Reallocation is realized through the same ghost-superblock machinery
FleetIO uses (offer on shrink, harvest on grow) — the mechanism is shared;
only the decision rule differs.  Unlike FleetIO there is no learning, no
priority scheduling, and no SLO term: utilization alone drives shares,
which is exactly why this baseline trades tail latency away (Figure 10).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.virt.actions import HarvestAction, MakeHarvestableAction

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.monitor import VssdMonitor
    from repro.virt.manager import StorageVirtualizer
    from repro.virt.vssd import Vssd


class AdaptiveManager:
    """Proportional-utilization channel manager."""

    def __init__(self, virtualizer: "StorageVirtualizer", window_s: float = 2.0) -> None:
        self.virt = virtualizer
        self.window_s = window_s
        self.monitors: dict = {}
        self._started = False
        self.reallocations = 0

    def register_vssd(self, vssd: "Vssd", monitor: "VssdMonitor") -> None:
        """Track a vSSD and the monitor supplying its window bandwidth."""
        self.monitors[vssd.vssd_id] = (vssd, monitor)

    def start(self) -> None:
        """Begin periodic rebalancing on the simulator clock."""
        if self._started:
            return
        self._started = True
        self.virt.admission.start()
        self.virt.sim.schedule(self.window_s * 1_000_000.0, self._window_tick)

    def stop(self) -> None:
        """Halt rebalancing."""
        self._started = False

    def _window_tick(self) -> None:
        if not self._started:
            return
        self.rebalance()
        self.virt.sim.schedule(self.window_s * 1_000_000.0, self._window_tick)

    def rebalance(self) -> None:
        """Reassign channel shares proportionally to last-window bandwidth."""
        now_s = self.virt.sim.now_seconds
        bw = {}
        for vssd_id, (vssd, monitor) in self.monitors.items():
            stats = monitor.snapshot_window(now_s)
            monitor.window_history.append(stats)
            bw[vssd_id] = max(stats.avg_bw_mbps, 0.0)
        total_bw = sum(bw.values())
        total_channels = self.virt.config.num_channels
        chan_bw = self.virt.config.channel_write_bandwidth_mbps
        n = len(self.monitors)
        if n == 0:
            return
        for vssd_id, (vssd, _monitor) in self.monitors.items():
            # Proportional share, floored at enough channels to carry the
            # tenant's measured bandwidth with headroom (eZNS never
            # shrinks a zone below its active demand).
            demand_floor = int(np.ceil(bw[vssd_id] / max(0.5 * chan_bw, 1e-9)))
            if total_bw <= 1e-9:
                target = total_channels // n
            else:
                target = round(total_channels * bw[vssd_id] / total_bw)
            target = max(1, demand_floor, target)
            lent = sum(g.n_chls for g in vssd.harvestable_gsbs if g.in_use)
            effective = vssd.num_channels - lent + vssd.harvested_channel_count()
            if effective > target:
                self.virt.admission.submit(
                    MakeHarvestableAction(
                        vssd_id, gsb_bw_mbps=(effective - target) * chan_bw + 1e-6
                    )
                )
                self.reallocations += 1
            elif effective < target:
                self.virt.admission.submit(
                    HarvestAction(
                        vssd_id, gsb_bw_mbps=(target - effective) * chan_bw + 1e-6
                    )
                )
                self.reallocations += 1
        self.virt.gsb_manager.pump_reclaims()
