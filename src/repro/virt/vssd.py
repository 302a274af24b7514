"""The virtual SSD (vSSD) abstraction."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sched.request import Priority

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.ftl import VssdFtl


class Vssd:
    """One tenant's virtual SSD.

    Tracks the identity, isolation mode, SLO, scheduling priority, and the
    ghost superblocks flowing in (harvested) and out (offered) of the
    instance.  The actual data path lives in the FTL and dispatcher.
    """

    def __init__(
        self,
        vssd_id: int,
        name: str,
        ftl: "VssdFtl",
        channel_ids: list,
        isolation: str = "hardware",
        slo_latency_us: Optional[float] = None,
        tenant_class: str = "standard",
    ) -> None:
        if isolation not in ("hardware", "software"):
            raise ValueError(f"unknown isolation mode {isolation!r}")
        self.vssd_id = vssd_id
        self.name = name
        self.ftl = ftl
        self.channel_ids = list(channel_ids)
        self.isolation = isolation
        #: Tail-latency SLO. The paper defaults this to the P99 latency the
        #: workload sees on a hardware-isolated vSSD (Section 3.3.1).
        self.slo_latency_us = slo_latency_us
        #: Used by admission-control policies (e.g. "spot" tenants may be
        #: barred from harvesting; "premium" from offering resources).
        self.tenant_class = tenant_class
        self.priority = Priority.MEDIUM
        #: gSBs this vSSD has harvested from others.
        self.harvested_gsbs: list = []
        #: gSBs this vSSD has offered (it is their home). Mirrors the
        #: "harvestable gSB list maintained in the home_vssd metadata".
        self.harvestable_gsbs: list = []
        self.deallocated = False
        #: Set by the guardrail watchdog while the vSSD's agent is in
        #: graceful degradation: admission control refuses its harvesting
        #: actions until the watchdog re-enables the agent.
        self.degraded = False

    @property
    def num_channels(self) -> int:
        """Channels in the vSSD's base allocation."""
        return len(self.channel_ids)

    def harvested_channel_count(self) -> int:
        """Total channels currently harvested from other vSSDs."""
        return sum(gsb.n_chls for gsb in self.harvested_gsbs)

    def harvested_capacity_pages(self) -> int:
        """Extra usable pages from capacity-purpose harvested gSBs.

        Bandwidth-purpose gSBs do not count: their blocks recycle and
        their data migrates home, so they add no durable space.
        """
        total = 0
        for gsb in self.harvested_gsbs:
            region = gsb.region
            if region is not None and region.purpose == "capacity":
                total += len(gsb.blocks) * self.ftl.config.pages_per_block
        return total

    def usable_capacity_pages(self) -> int:
        """Own logical pages plus capacity-harvested pages."""
        config = self.ftl.config
        own_pages = (
            sum(self.ftl._own_blocks_per_channel.values()) * config.pages_per_block
        )
        logical_own = int(own_pages * (1.0 - config.overprovision_ratio))
        return logical_own + self.harvested_capacity_pages()

    def offered_channel_count(self) -> int:
        """Total channels' worth of gSBs this vSSD currently offers."""
        return sum(gsb.n_chls for gsb in self.harvestable_gsbs)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Vssd({self.vssd_id}, {self.name!r}, {self.isolation}, "
            f"channels={self.channel_ids})"
        )
