"""Mapping ghost superblocks onto zones (Section 5's generalizability).

On a conventional SSD a gSB packages free blocks; on a zoned device the
natural harvestable unit is an **EMPTY zone**: it is erased, contiguous,
and single-channel — exactly a one-channel superblock.  The adapter:

* **offers** EMPTY zones: the zone is finished (so the zoned host cannot
  append to it while it is lent out), a regular
  :class:`~repro.virt.gsb.GhostSuperblock` enters the shared pool, and
  its blocks' ``gsb_of`` entries (their HBT mark) name it — FleetIO's
  admission control and RL actions need no changes;
* lets a block-interface vSSD **harvest** such a gSB through the same
  write-region mechanism the FTL uses for any other gSB;
* **reclaims** lazily: the harvester's GC copies its data home, erased
  blocks flow back, and the zone resets to EMPTY for its owner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.ssd.blockstate import BlockState
from repro.ssd.region import WriteRegion
from repro.virt.gsb import GhostSuperblock, GsbPool
from repro.zns.namespace import ZnsError, ZonedNamespace
from repro.zns.zone import Zone, ZoneState

if TYPE_CHECKING:  # pragma: no cover
    from repro.virt.vssd import Vssd


def zone_to_gsb(zone: Zone, home_id: int) -> GhostSuperblock:
    """Package an EMPTY zone's blocks as a one-channel ghost superblock."""
    if zone.state is not ZoneState.EMPTY:
        raise ZnsError(f"zone {zone.zone_id} is {zone.state}, not EMPTY")
    return GhostSuperblock(
        n_chls=1,
        blocks=list(zone.blocks),
        home_vssd=home_id,
        blocks_per_channel=zone.store.blocks_per_channel,
    )


class ZnsHarvestAdapter:
    """Bridges a zoned namespace into FleetIO's gSB machinery."""

    def __init__(self, namespace: ZonedNamespace, pool: GsbPool) -> None:
        self.namespace = namespace
        self.store = namespace.store
        self.pool = pool
        #: gsb_id -> zone, for every zone currently lent out or pooled.
        self._lent: dict = {}
        self.zones_offered = 0
        self.zones_returned = 0

    # ------------------------------------------------------------------
    # Offering
    # ------------------------------------------------------------------
    def offer_zone(self, zone_id: int) -> GhostSuperblock:
        """Lend one EMPTY zone to the harvest pool."""
        zone = self.namespace.zone(zone_id)
        gsb = zone_to_gsb(zone, home_id=self.namespace.owner_id)
        # The zoned host must not append while the zone is lent out; a
        # FULL zone rejects appends by the ZNS state machine itself.
        zone.finish()
        self.pool.insert(gsb)
        gsb_of = self.store.gsb_of
        for gid in gsb.blocks:
            gsb_of[gid] = gsb.gsb_id
        self._lent[gsb.gsb_id] = zone
        self.zones_offered += 1
        return gsb

    def offer_empty_zones(self, count: int) -> list:
        """Offer up to ``count`` EMPTY zones; returns the created gSBs.

        Zones are picked round-robin across channels so a harvester
        gains bandwidth (parallel channels), not just capacity.
        """
        by_channel: dict = {}
        for zone in self.namespace.zones_in(ZoneState.EMPTY):
            by_channel.setdefault(zone.channel_id, []).append(zone)
        offered = []
        while len(offered) < count and any(by_channel.values()):
            for channel_id in sorted(by_channel):
                zones = by_channel[channel_id]
                if zones and len(offered) < count:
                    offered.append(self.offer_zone(zones.pop(0).zone_id))
        return offered

    # ------------------------------------------------------------------
    # Harvesting (by a block-interface vSSD)
    # ------------------------------------------------------------------
    def harvest(self, harvester: "Vssd") -> Optional[GhostSuperblock]:
        """Acquire one zone-gSB from the pool into the harvester's FTL."""
        gsb = self.pool.acquire(1, exclude_home=harvester.vssd_id)
        if gsb is None or gsb.gsb_id not in self._lent:
            if gsb is not None:
                self.pool.insert(gsb)  # not one of ours; put it back
            return None
        gsb.in_use = True
        gsb.harvest_vssd = harvester.vssd_id
        region = WriteRegion(f"zns-gsb:{gsb.gsb_id}", self.store, gsb_id=gsb.gsb_id)
        region.add_blocks(gsb.blocks)
        gsb.region = region
        harvester.ftl.add_harvest_region(region)
        harvester.harvested_gsbs.append(gsb)
        return gsb

    # ------------------------------------------------------------------
    # Reclaim
    # ------------------------------------------------------------------
    def reclaim(self, gsb: GhostSuperblock, harvester: Optional["Vssd"] = None) -> None:
        """Take a lent zone back.

        Unused gSBs return immediately; in-use ones reclaim lazily — the
        harvester's GC copies valid data to its own blocks, and the zone
        resets once every block is back.
        """
        if gsb.gsb_id not in self._lent:
            raise ZnsError(f"gSB {gsb.gsb_id} is not a lent zone")
        if not gsb.in_use:
            self.pool.remove(gsb)
            gsb_of = self.store.gsb_of
            for gid in gsb.blocks:
                gsb_of[gid] = -1
            gsb.blocks.clear()
            self._finish_return(gsb)
            return
        if harvester is None:
            raise ZnsError("reclaiming an in-use zone requires the harvester")
        gsb.reclaiming = True
        region = gsb.region
        harvester.ftl.start_reclaim(region)
        for gid in region.drain_free_blocks():
            self._block_home(gsb, gid)
        state = self.store.state
        pending = [gid for gid in gsb.blocks if state[gid] is not BlockState.FREE]
        try:
            harvester.ftl.collect_blocks(pending, region)
        finally:
            for gid in region.take_released():
                self._block_home(gsb, gid)
        if region in harvester.ftl.harvest_regions:
            harvester.ftl.remove_harvest_region(region)
        if gsb in harvester.harvested_gsbs:
            harvester.harvested_gsbs.remove(gsb)

    def _block_home(self, gsb: GhostSuperblock, gid: int) -> None:
        gsb_of = self.store.gsb_of
        if gsb_of[gid] != gsb.gsb_id:
            raise ZnsError(
                f"block {self.store.locate(gid)} returned twice to zone-gSB"
            )
        gsb_of[gid] = -1
        gsb.blocks.remove(gid)
        if not gsb.blocks:
            self._finish_return(gsb)

    def _finish_return(self, gsb: GhostSuperblock) -> None:
        zone = self._lent.pop(gsb.gsb_id)
        zone.reset()  # FULL -> EMPTY; blocks are already erased
        gsb.in_use = False
        gsb.harvest_vssd = None
        self.zones_returned += 1

    @property
    def zones_lent(self) -> int:
        """Zones currently pooled or harvested."""
        return len(self._lent)
