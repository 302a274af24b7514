"""The gSB manager: creating, harvesting, and reclaiming ghost superblocks.

Implements Section 3.6.2:

* **Creating** — ``Make_Harvestable(gsb_bw)`` is converted to a channel
  count by dividing by the per-channel bandwidth (rounding down).  The
  new gSB takes ``min_superblock_blocks`` free blocks from each selected
  channel of the home vSSD; channels under the 25% free-block floor are
  skipped.  The gSB is inserted at the head of its ``n_chls`` list.
* **Harvesting** — ``Harvest(gsb_bw)`` acquires a best-fit gSB from the
  pool (never one of the harvester's own), installs it as a write region
  in the harvester's FTL, and marks it in use.
* **Reclaiming** — when ``Make_Harvestable`` specifies fewer channels
  than a home vSSD currently offers, excess unused gSBs are destroyed
  immediately; in-use ones reclaim lazily, their blocks migrating home
  through the harvester's GC (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.config import SSDConfig
from repro.ssd.region import WriteRegion
from repro.virt.gsb import GhostSuperblock, GsbPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.device import Ssd
    from repro.ssd.geometry import FlashBlock
    from repro.ssd.hbt import HarvestedBlockTable
    from repro.virt.vssd import Vssd


@dataclass
class GsbManagerStats:
    """Counters of gSB lifecycle events and block movement."""
    gsbs_created: int = 0
    gsbs_harvested: int = 0
    gsbs_destroyed_unused: int = 0
    gsbs_reclaimed_lazily: int = 0
    harvest_misses: int = 0
    blocks_offered: int = 0
    blocks_returned: int = 0
    gsbs_reclaimed_degraded: int = 0
    gsbs_released_by_watchdog: int = 0


class GsbManager:
    """Owns the gSB pool and executes harvesting state transitions."""

    def __init__(self, ssd: "Ssd", hbt: "HarvestedBlockTable") -> None:
        self.ssd = ssd
        self.config: SSDConfig = ssd.config
        self.hbt = hbt
        self.pool = GsbPool(self.config.num_channels)
        self.stats = GsbManagerStats()
        self._reclaiming: list = []
        self._vssd_by_id: dict = {}

    # ------------------------------------------------------------------
    # Bandwidth <-> channels
    # ------------------------------------------------------------------
    def bandwidth_to_channels(self, gsb_bw_mbps: float) -> int:
        """Divide requested bandwidth by a single channel's maximum
        bandwidth, rounding down (Section 3.6.2)."""
        per_channel = self.config.channel_write_bandwidth_mbps
        return int(gsb_bw_mbps // per_channel)

    # ------------------------------------------------------------------
    # Make_Harvestable
    # ------------------------------------------------------------------
    def make_harvestable(self, home: "Vssd", gsb_bw_mbps: float) -> Optional[GhostSuperblock]:
        """Create a gSB offering ``gsb_bw_mbps``; also reclaims excess.

        Returns the created gSB, or None when the request rounds to zero
        channels or no channel passes the free-block floor.
        """
        n_chls = self.bandwidth_to_channels(gsb_bw_mbps)
        self.reclaim_excess(home, n_chls)
        already_offered = home.offered_channel_count()
        wanted = n_chls - already_offered
        if wanted <= 0:
            return None
        channels = self._pick_offer_channels(home, wanted)
        if len(channels) < 1:
            return None
        blocks = []
        for channel_id in channels:
            taken = home.ftl.surrender_free_blocks(
                channel_id, self.config.min_superblock_blocks
            )
            blocks.extend(taken)
        if not blocks:
            return None
        for block in blocks:
            self.hbt.mark_harvested(block)
        gsb = GhostSuperblock(n_chls=len(channels), blocks=blocks, home_vssd=home.vssd_id)
        self.pool.insert(gsb)
        home.harvestable_gsbs.append(gsb)
        self.stats.gsbs_created += 1
        self.stats.blocks_offered += len(blocks)
        return gsb

    def _pick_offer_channels(self, home: "Vssd", n_chls: int) -> list:
        """Home channels above the 25% free floor, most free first.

        Channels carrying an injected fault are never offered: a gSB on a
        degraded channel would hand the harvester the fault's latency.
        """
        floor = self.config.gsb_min_free_fraction
        min_blocks = self.config.min_superblock_blocks
        candidates = []
        for channel_id in home.channel_ids:
            if self.ssd.channels[channel_id].degraded:
                continue
            fraction = home.ftl.free_fraction(channel_id)
            free_count = home.ftl.own_region.free_block_count_on(channel_id)
            if fraction >= floor and free_count >= min_blocks:
                candidates.append((fraction, channel_id))
        candidates.sort(reverse=True)
        return [channel_id for _fraction, channel_id in candidates[:n_chls]]

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def harvest(
        self,
        harvester: "Vssd",
        gsb_bw_mbps: float,
        purpose: str = "bandwidth",
    ) -> Optional[GhostSuperblock]:
        """Acquire a best-fit gSB and install it in the harvester's FTL.

        ``purpose`` selects what the harvested resource is for:
        ``"bandwidth"`` (the paper's focus — blocks recycle, data flows
        home through GC) or ``"capacity"`` (the Section 5 extension —
        data lives in the gSB long-term and GC compacts in place,
        growing the harvester's usable space by the gSB's capacity).
        """
        n_chls = max(1, self.bandwidth_to_channels(gsb_bw_mbps))
        gsb = self.pool.acquire(
            n_chls,
            exclude_home=harvester.vssd_id,
            predicate=self._healthy_gsb,
        )
        if gsb is None:
            self.stats.harvest_misses += 1
            return None
        gsb.in_use = True
        gsb.harvest_vssd = harvester.vssd_id
        region = WriteRegion(
            f"gsb:{gsb.gsb_id}",
            kind="harvest",
            purpose=purpose,
            on_block_released=lambda block, g=gsb: self._block_returned(g, block),
        )
        region.add_blocks(gsb.blocks)
        gsb.region = region
        harvester.ftl.add_harvest_region(region)
        harvester.harvested_gsbs.append(gsb)
        self._vssd_by_id[harvester.vssd_id] = harvester
        self.stats.gsbs_harvested += 1
        return gsb

    def register_vssd(self, vssd: "Vssd") -> None:
        """Let the manager resolve vssd ids during reclamation."""
        self._vssd_by_id[vssd.vssd_id] = vssd

    def close(self) -> None:
        """Unhook every harvest region still attached.

        A region's ``on_block_released`` hook holds this manager and its
        gSB, and both lead back to the region (the manager through the
        harvester's vSSD, the gSB through ``gsb.region``).  Idempotent.
        """
        for vssd in self._vssd_by_id.values():
            for gsb in vssd.harvested_gsbs:
                gsb.region.on_block_released = None

    def _healthy_gsb(self, gsb: GhostSuperblock) -> bool:
        """True when none of the gSB's channels carry an injected fault."""
        return not any(self.ssd.channels[c].degraded for c in gsb.channel_ids)

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------
    def reclaim_excess(self, home: "Vssd", target_n_chls: int) -> int:
        """Reclaim offered gSBs beyond ``target_n_chls`` channels total.

        Unused gSBs are destroyed immediately; in-use ones reclaim lazily
        (their blocks return through the harvester's GC).  Returns the
        number of gSBs whose reclamation started.
        """
        reclaimed = 0
        offered = home.offered_channel_count()
        # Reclaim largest-first until the offer fits the target.
        for gsb in sorted(home.harvestable_gsbs, key=lambda g: -g.n_chls):
            if offered <= target_n_chls:
                break
            if gsb.reclaiming:
                continue
            if not gsb.in_use:
                self._destroy_unused(home, gsb)
            else:
                self._start_lazy_reclaim(gsb)
            offered -= gsb.n_chls
            reclaimed += 1
        return reclaimed

    def _destroy_unused(self, home: "Vssd", gsb: GhostSuperblock) -> None:
        self.pool.remove(gsb)
        for block in gsb.blocks:
            self.hbt.mark_regular(block)
        home.ftl.adopt_blocks(gsb.blocks)
        home.harvestable_gsbs.remove(gsb)
        self.stats.gsbs_destroyed_unused += 1
        self.stats.blocks_returned += len(gsb.blocks)

    def _start_lazy_reclaim(self, gsb: GhostSuperblock) -> None:
        gsb.reclaiming = True
        region = gsb.region
        region.reclaiming = True
        self._reclaiming.append(gsb)
        # FREE blocks (including opened-but-unwritten frontiers) can go
        # home immediately.
        for block in region.drain_free_blocks():
            self._block_returned(gsb, block)
        self.stats.gsbs_reclaimed_lazily += 1
        self.pump_reclaims()

    def _block_returned(self, gsb: GhostSuperblock, block: "FlashBlock") -> None:
        """A reclaiming gSB's block is FREE again — send it home.

        The block leaves ``gsb.blocks`` so a later pump cannot touch it
        once it has moved on (e.g. into a freshly offered gSB); when the
        list empties, the reclaim finalizes.
        """
        home = self._vssd_of(gsb.home_vssd)
        self.hbt.mark_regular(block)
        try:
            gsb.blocks.remove(block)
        except ValueError:
            raise RuntimeError(
                f"block {block.block_id} returned to gSB {gsb.gsb_id} twice"
            )
        home.ftl.adopt_blocks([block])
        self.stats.blocks_returned += 1
        if not gsb.blocks:
            self._finalize_reclaim(gsb)

    def _finalize_reclaim(self, gsb: GhostSuperblock) -> None:
        harvester = self._vssd_of(gsb.harvest_vssd)
        home = self._vssd_of(gsb.home_vssd)
        if gsb.region in harvester.ftl.harvest_regions:
            harvester.ftl.remove_harvest_region(gsb.region)
        # The detached region releases nothing more; unhooked, it and
        # its gSB are freed without a garbage collection.
        gsb.region.on_block_released = None
        if gsb in harvester.harvested_gsbs:
            harvester.harvested_gsbs.remove(gsb)
        if gsb in home.harvestable_gsbs:
            home.harvestable_gsbs.remove(gsb)
        if gsb in self._reclaiming:
            self._reclaiming.remove(gsb)
        gsb.in_use = False
        gsb.harvest_vssd = None

    def pump_reclaims(self) -> int:
        """Drive lazy reclamation forward by collecting region blocks.

        Called periodically (each decision window) so reclaiming gSBs
        drain even if the harvester stopped writing to those channels.
        Returns blocks collected this pump.
        """
        collected = 0
        for gsb in list(self._reclaiming):
            harvester = self._vssd_of(gsb.harvest_vssd)
            pending = [
                b for b in gsb.blocks
                if not b.is_free and b.writer == gsb.harvest_vssd
            ]
            if pending:
                collected += harvester.ftl.collect_blocks(pending, gsb.region)
        return collected

    def reclaim_degraded(self) -> int:
        """Pull gSBs off fault-degraded channels back to their homes.

        Pooled gSBs touching a degraded channel are destroyed outright
        (their blocks return to the home vSSD); in-use ones start lazy
        reclamation so the harvester stops steering writes at the fault.
        Returns the number of gSBs whose reclamation started.
        """
        degraded = self.ssd.degraded_channels()
        if not degraded:
            return 0
        degraded_set = set(degraded)
        reclaimed = 0
        for gsb in self.pool.peek_all():
            if degraded_set.intersection(gsb.channel_ids):
                self._destroy_unused(self._vssd_of(gsb.home_vssd), gsb)
                reclaimed += 1
        for vssd in self._vssd_by_id.values():
            for gsb in list(vssd.harvested_gsbs):
                if gsb.reclaiming:
                    continue
                if degraded_set.intersection(gsb.channel_ids):
                    self._start_lazy_reclaim(gsb)
                    reclaimed += 1
        self.stats.gsbs_reclaimed_degraded += reclaimed
        return reclaimed

    def release_harvested(self, harvester: "Vssd") -> int:
        """Give back everything ``harvester`` has harvested (watchdog).

        Called when the guardrail watchdog puts a vSSD's agent into
        graceful degradation: all of its harvested gSBs start lazy
        reclamation so the resources flow back to their home tenants.
        Returns the number of gSBs whose reclamation started.
        """
        released = 0
        for gsb in list(harvester.harvested_gsbs):
            if gsb.reclaiming:
                continue
            self._start_lazy_reclaim(gsb)
            released += 1
        self.stats.gsbs_released_by_watchdog += released
        return released

    def reclaiming_gsbs(self) -> list:
        """gSBs currently draining home through lazy reclamation."""
        return list(self._reclaiming)

    def _vssd_of(self, vssd_id: int) -> "Vssd":
        if vssd_id not in self._vssd_by_id:
            raise KeyError(
                f"vSSD {vssd_id} not registered with the gSB manager; "
                "call register_vssd() for every tenant"
            )
        return self._vssd_by_id[vssd_id]
