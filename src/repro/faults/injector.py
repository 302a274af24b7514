"""Declarative fault injection driven by the discrete-event simulator.

A :class:`FaultSpec` names one fault — what, where, when, for how long.
:class:`FaultInjector` arms a list of specs against a running
:class:`~repro.virt.manager.StorageVirtualizer`: each spec schedules a
start and an end event on the simulator clock, and the injector keeps
the combined per-channel fault state consistent when faults overlap
(slowdown factors multiply, latency spikes add, any outage wins).

Supported kinds:

* ``channel_slowdown`` — all flash/bus timings on a channel stretch by
  ``factor`` (a flaky interconnect or throttled die).
* ``channel_outage`` — the channel refuses new capacity and reports no
  queue headroom (a controller-visible brownout).
* ``latency_spike`` — a constant extra service latency on a channel.
* ``gc_storm`` — a vSSD's GC threshold jumps so garbage collection
  triggers near-continuously; urgent GC is kicked on all its channels.
* ``monitor_dropout`` — a vSSD's monitor stops seeing completions, so
  decision windows carry no stats (a stalled telemetry pipeline).
* ``agent_corruption`` — the monitor's window snapshots turn to NaN,
  feeding garbage observations to the RL agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.faults.events import ControlEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.monitor import VssdMonitor
    from repro.virt.manager import StorageVirtualizer

#: Fault kinds targeting a channel (resolved through the Ssd device).
CHANNEL_KINDS = ("channel_slowdown", "channel_outage", "latency_spike")
#: Fault kinds targeting a vSSD (resolved by name).
VSSD_KINDS = ("gc_storm", "monitor_dropout", "agent_corruption")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: kind, target, window, and parameters."""

    kind: str
    start_s: float
    duration_s: float
    channel: Optional[int] = None
    vssd: Optional[str] = None
    factor: float = 1.0
    extra_latency_us: float = 0.0
    gc_threshold: float = 0.95

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS + VSSD_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("fault needs start_s >= 0 and duration_s > 0")
        if self.kind in CHANNEL_KINDS and self.channel is None:
            raise ValueError(f"{self.kind} needs a channel")
        if self.kind in VSSD_KINDS and self.vssd is None:
            raise ValueError(f"{self.kind} needs a vssd name")
        if self.kind == "channel_slowdown" and self.factor <= 0:
            raise ValueError("slowdown factor must be positive")
        if self.kind == "latency_spike" and self.extra_latency_us < 0:
            raise ValueError("extra latency must be non-negative")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def target(self) -> str:
        """The event-log target string (channel id or vSSD name)."""
        if self.kind in CHANNEL_KINDS:
            return f"channel:{self.channel}"
        return f"vssd:{self.vssd}"

    @property
    def detail(self) -> str:
        if self.kind == "channel_slowdown":
            return f"factor={self.factor:g}"
        if self.kind == "latency_spike":
            return f"extra_us={self.extra_latency_us:g}"
        if self.kind == "gc_storm":
            return f"threshold={self.gc_threshold:g}"
        return ""


# ----------------------------------------------------------------------
# Spec factories — the declarative surface used by experiments / the CLI
# ----------------------------------------------------------------------
def channel_slowdown(channel: int, factor: float, start_s: float, duration_s: float) -> FaultSpec:
    """All timings on ``channel`` stretch by ``factor`` for the window."""
    return FaultSpec(
        "channel_slowdown", start_s, duration_s, channel=channel, factor=factor
    )


def channel_outage(channel: int, start_s: float, duration_s: float) -> FaultSpec:
    """``channel`` refuses capacity and headroom for the window."""
    return FaultSpec("channel_outage", start_s, duration_s, channel=channel)


def latency_spike(
    channel: int, extra_latency_us: float, start_s: float, duration_s: float
) -> FaultSpec:
    """Every service on ``channel`` pays ``extra_latency_us`` more."""
    return FaultSpec(
        "latency_spike",
        start_s,
        duration_s,
        channel=channel,
        extra_latency_us=extra_latency_us,
    )


def gc_storm(
    vssd: str, start_s: float, duration_s: float, threshold: float = 0.95
) -> FaultSpec:
    """Force near-continuous GC on ``vssd`` by raising its threshold."""
    return FaultSpec(
        "gc_storm", start_s, duration_s, vssd=vssd, gc_threshold=threshold
    )


def monitor_dropout(vssd: str, start_s: float, duration_s: float) -> FaultSpec:
    """``vssd``'s monitor sees no completions for the window."""
    return FaultSpec("monitor_dropout", start_s, duration_s, vssd=vssd)


def agent_corruption(vssd: str, start_s: float, duration_s: float) -> FaultSpec:
    """``vssd``'s window snapshots turn to NaN for the window."""
    return FaultSpec("agent_corruption", start_s, duration_s, vssd=vssd)


class FaultInjector:
    """Schedules armed fault specs and applies/retracts their effects."""

    def __init__(
        self,
        virt: "StorageVirtualizer",
        monitors: Optional[dict] = None,
    ) -> None:
        self.virt = virt
        #: vSSD name -> :class:`VssdMonitor` for monitor-targeted faults.
        self.monitors: dict = dict(monitors or {})
        self.event_log: list = []
        self._active: list = []
        self._active_by_channel: dict = {}
        # gc_storm bookkeeping: vssd_id -> [original_threshold, count].
        self._storm_saved: dict = {}
        # Counting flags so overlapping monitor faults compose.
        self._dropout_count: dict = {}
        self._corrupt_count: dict = {}

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self, specs: list) -> None:
        """Schedule every spec's start and end on the simulator clock."""
        now_s = self.virt.sim.now_seconds
        for spec in specs:
            if spec.start_s < now_s:
                raise ValueError(
                    f"fault {spec.kind} starts at {spec.start_s}s, "
                    f"but the clock is already at {now_s}s"
                )
            if spec.kind in VSSD_KINDS and spec.kind != "gc_storm":
                if spec.vssd not in self.monitors:
                    raise KeyError(
                        f"{spec.kind} targets vSSD {spec.vssd!r}, but no "
                        "monitor was registered for it"
                    )
            if spec.kind in CHANNEL_KINDS:
                if not 0 <= spec.channel < self.virt.config.num_channels:
                    raise ValueError(f"channel {spec.channel} out of range")
            self.virt.sim.schedule_at(spec.start_s * 1_000_000.0, self._on_start, spec)
            self.virt.sim.schedule_at(spec.end_s * 1_000_000.0, self._on_end, spec)

    # ------------------------------------------------------------------
    # Fire / clear
    # ------------------------------------------------------------------
    def _on_start(self, spec: FaultSpec) -> None:
        self._active.append(spec)
        if spec.kind in CHANNEL_KINDS:
            self._active_by_channel.setdefault(spec.channel, []).append(spec)
            self._recompute_channel(spec.channel)
        elif spec.kind == "gc_storm":
            self._start_gc_storm(spec)
        elif spec.kind == "monitor_dropout":
            self._bump_monitor_flag(spec.vssd, self._dropout_count, "dropout", +1)
        elif spec.kind == "agent_corruption":
            self._bump_monitor_flag(spec.vssd, self._corrupt_count, "corrupt", +1)
        self._log(spec, "start")

    def _on_end(self, spec: FaultSpec) -> None:
        self._active.remove(spec)
        if spec.kind in CHANNEL_KINDS:
            self._active_by_channel[spec.channel].remove(spec)
            self._recompute_channel(spec.channel)
        elif spec.kind == "gc_storm":
            self._end_gc_storm(spec)
        elif spec.kind == "monitor_dropout":
            self._bump_monitor_flag(spec.vssd, self._dropout_count, "dropout", -1)
        elif spec.kind == "agent_corruption":
            self._bump_monitor_flag(spec.vssd, self._corrupt_count, "corrupt", -1)
        self._log(spec, "end")

    def _recompute_channel(self, channel_id: int) -> None:
        """Re-derive the channel's combined fault state from active specs."""
        slowdown = 1.0
        extra = 0.0
        offline = False
        for spec in self._active_by_channel.get(channel_id, []):
            if spec.kind == "channel_slowdown":
                slowdown *= spec.factor
            elif spec.kind == "latency_spike":
                extra += spec.extra_latency_us
            elif spec.kind == "channel_outage":
                offline = True
        self.virt.ssd.set_channel_fault(
            channel_id, slowdown=slowdown, extra_latency_us=extra, offline=offline
        )

    def _start_gc_storm(self, spec: FaultSpec) -> None:
        vssd = self.virt.vssd_by_name(spec.vssd)
        saved = self._storm_saved.get(vssd.vssd_id)
        if saved is None:
            self._storm_saved[vssd.vssd_id] = [vssd.ftl.gc_threshold, 1]
        else:
            saved[1] += 1
        vssd.ftl.gc_threshold = spec.gc_threshold
        for channel_id in vssd.channel_ids:
            vssd.ftl.run_gc(channel_id, urgent=True)

    def _end_gc_storm(self, spec: FaultSpec) -> None:
        vssd = self.virt.vssd_by_name(spec.vssd)
        saved = self._storm_saved[vssd.vssd_id]
        saved[1] -= 1
        if saved[1] == 0:
            vssd.ftl.gc_threshold = saved[0]
            del self._storm_saved[vssd.vssd_id]

    def _bump_monitor_flag(
        self, vssd_name: str, counts: dict, attr: str, delta: int
    ) -> None:
        monitor: "VssdMonitor" = self.monitors[vssd_name]
        counts[vssd_name] = counts.get(vssd_name, 0) + delta
        setattr(monitor, attr, counts[vssd_name] > 0)

    def _log(self, spec: FaultSpec, phase: str) -> None:
        self.event_log.append(
            ControlEvent(
                time_s=self.virt.sim.now_seconds,
                source="injector",
                kind=spec.kind,
                phase=phase,
                target=spec.target,
                detail=spec.detail,
            )
        )
