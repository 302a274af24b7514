"""The storage virtualization framework tying the pieces together.

:class:`StorageVirtualizer` owns the simulator, the physical SSD, the
dispatcher, the harvested-block table, the gSB manager, and admission
control.  It creates hardware-isolated vSSDs (dedicated channels) and
software-isolated vSSDs (a block slice on shared channels), and handles
deallocation through a placeholder vSSD that keeps freed resources
harvestable (Section 3.7).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.config import SSDConfig
from repro.sched.dispatcher import IoDispatcher
from repro.sched.policies import PriorityPolicy, SchedulingPolicy
from repro.sim.engine import Simulator
from repro.ssd.device import Ssd
from repro.ssd.ftl import VssdFtl
from repro.ssd.hbt import HarvestedBlockTable
from repro.virt.admission import AdmissionController
from repro.virt.gsb_manager import GsbManager
from repro.virt.vssd import Vssd

#: The placeholder vSSD that owns deallocated resources (Section 3.7).
PLACEHOLDER_VSSD_ID = -1


class StorageVirtualizer:
    """Builds and manages the full virtualized-SSD stack."""

    def __init__(
        self,
        config: Optional[SSDConfig] = None,
        policy: Optional[SchedulingPolicy] = None,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.config = config or SSDConfig()
        self.sim = sim or Simulator()
        self.ssd = Ssd(self.config, self.sim)
        self.policy = policy or PriorityPolicy()
        self.dispatcher = IoDispatcher(self.sim, self.ssd, self.policy)
        self.hbt = HarvestedBlockTable()
        self.gsb_manager = GsbManager(self.ssd, self.hbt)
        # Set_Priority reaches the scheduler only under the priority
        # policy.  The policy's own bound method, not one of ours, so
        # admission holds no edge back to the virtualizer.
        self._set_priority_fn = (
            self.policy.set_priority
            if isinstance(self.policy, PriorityPolicy)
            else None
        )
        self.admission = AdmissionController(
            self.sim,
            self.gsb_manager,
            set_priority_fn=self._set_priority_fn,
        )
        self.vssds: dict = {}
        self._next_id = 0
        self._placeholder: Optional[Vssd] = None

    # ------------------------------------------------------------------
    # vSSD lifecycle
    # ------------------------------------------------------------------
    def create_vssd(
        self,
        name: str,
        channel_ids: list,
        isolation: str = "hardware",
        blocks_per_channel: Optional[int] = None,
        slo_latency_us: Optional[float] = None,
        tenant_class: str = "standard",
        **policy_kwargs: Any,
    ) -> Vssd:
        """Create a vSSD.

        Hardware isolation grants every block on the listed channels.
        Software isolation grants ``blocks_per_channel`` blocks on each
        listed channel, so multiple tenants share the channels' bandwidth.
        """
        vssd_id = self._next_id
        self._next_id += 1
        ftl = VssdFtl(vssd_id, self.ssd, hbt=self.hbt)
        if isolation == "hardware":
            blocks = self.ssd.allocate_channels(vssd_id, channel_ids)
            if not blocks:
                raise ValueError(
                    f"channels {channel_ids} have no unowned blocks left"
                )
        else:
            if blocks_per_channel is None:
                raise ValueError("software isolation requires blocks_per_channel")
            blocks = self.ssd.allocate_blocks_striped(
                vssd_id, channel_ids, blocks_per_channel
            )
        ftl.adopt_blocks(blocks)
        vssd = Vssd(
            vssd_id,
            name,
            ftl,
            channel_ids,
            isolation=isolation,
            slo_latency_us=slo_latency_us,
            tenant_class=tenant_class,
        )
        self.vssds[vssd_id] = vssd
        self.dispatcher.register_vssd(vssd_id, ftl, **policy_kwargs)
        self.admission.register_vssd(vssd)
        return vssd

    def deallocate_vssd(self, vssd_id: int) -> None:
        """Tear down a vSSD; its resources go to the placeholder vSSD.

        All data is invalidated and blocks are erased (the paper erases
        harvested/reclaimed blocks before returning them; deallocation is
        the same security boundary), then ownership moves to a placeholder
        vSSD that offers the free capacity for harvesting.
        """
        vssd = self.vssds.pop(vssd_id, None)
        if vssd is None:
            raise KeyError(f"unknown vSSD {vssd_id}")
        vssd.deallocated = True
        self.dispatcher.unregister_vssd(vssd_id)
        vssd.ftl.trim_all()
        placeholder = self._ensure_placeholder()
        moved = []
        for channel in self.ssd.channels:
            for block in channel.blocks:
                if block.owner == vssd_id:
                    if block.valid_count:
                        raise RuntimeError("trim_all left valid data behind")
                    if not block.is_free:
                        block.erase()
                    self.hbt.mark_regular(block)
                    block.owner = PLACEHOLDER_VSSD_ID
                    moved.append(block)
        placeholder.ftl.adopt_blocks(moved)
        placeholder.channel_ids = sorted(
            set(placeholder.channel_ids) | {b.channel_id for b in moved}
        )

    def _ensure_placeholder(self) -> Vssd:
        if self._placeholder is None:
            ftl = VssdFtl(PLACEHOLDER_VSSD_ID, self.ssd, hbt=self.hbt)
            self._placeholder = Vssd(
                PLACEHOLDER_VSSD_ID,
                "placeholder",
                ftl,
                [],
                isolation="hardware",
                tenant_class="placeholder",
            )
            self.admission.register_vssd(self._placeholder)
        return self._placeholder

    @property
    def placeholder(self) -> Optional[Vssd]:
        """The placeholder vSSD holding deallocated resources, if any."""
        return self._placeholder

    def offer_placeholder_capacity(self) -> None:
        """Make all placeholder-held capacity harvestable."""
        placeholder = self._ensure_placeholder()
        per_channel = self.config.channel_write_bandwidth_mbps
        bandwidth = per_channel * max(len(placeholder.channel_ids), 1)
        self.gsb_manager.make_harvestable(placeholder, bandwidth)

    def close(self) -> None:
        """Sever the stack's back-edges so reference counting frees it.

        The engine drops its pending events, the dispatcher its
        completion callbacks, the device its block views and the gSB
        manager its harvest hooks.  Nothing may run on a closed stack.
        Idempotent.
        """
        self.sim.close()
        self.dispatcher.close()
        self.ssd.close()
        self.gsb_manager.close()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def set_priority(self, vssd_id: int, level: int) -> None:
        """Set a vSSD's scheduling priority outside the admission path.

        Used by the guardrail watchdog to reset a degraded tenant to a
        neutral priority without submitting an RL action.
        """
        vssd = self.vssds.get(vssd_id)
        if vssd is None and self._placeholder is not None and self._placeholder.vssd_id == vssd_id:
            vssd = self._placeholder
        if vssd is None:
            raise KeyError(f"vSSD {vssd_id} not found")
        vssd.priority = level
        if self._set_priority_fn is not None:
            self._set_priority_fn(vssd_id, level)

    def vssd_by_name(self, name: str) -> Vssd:
        """Look up a live vSSD by its name."""
        for vssd in self.vssds.values():
            if vssd.name == name:
                return vssd
        raise KeyError(f"no vSSD named {name!r}")
