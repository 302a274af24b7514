"""A zoned namespace carved out of the discrete-event SSD."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ssd.blockstate import BlockState
from repro.zns.zone import Zone, ZoneState

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.device import Ssd


class ZnsError(RuntimeError):
    """Namespace-level protocol violation (open limits, bad ids...)."""


class ZonedNamespace:
    """Zones over the simulated SSD, with ZNS protocol enforcement.

    Zones are carved channel by channel: each zone takes
    ``blocks_per_zone`` unowned blocks of one channel (chip-interleaved),
    so a zone's appends pipeline across the channel's chips and two zones
    on different channels are hardware-independent — the same isolation
    boundary FleetIO's vSSDs use.

    ``max_open_zones`` mirrors real ZNS devices' active-zone resource
    limit; appends to a non-OPEN zone implicitly open it if a slot is
    available (implicit open, as in the NVMe spec).
    """

    def __init__(
        self,
        ssd: "Ssd",
        owner_id: int,
        channel_ids: list,
        blocks_per_zone: int = 8,
        max_open_zones: int = 8,
    ) -> None:
        if blocks_per_zone <= 0:
            raise ValueError("blocks_per_zone must be positive")
        if max_open_zones <= 0:
            raise ValueError("max_open_zones must be positive")
        self.ssd = ssd
        self.owner_id = owner_id
        self.max_open_zones = max_open_zones
        self.zones: list = []
        self.appends = 0
        self.reads = 0
        store = ssd.store
        self.store = store
        zone_id = 0
        for channel_id in channel_ids:
            free = [gid for gid in ssd.channel_gids(channel_id) if store.owner[gid] is None]
            # Interleave chips within each zone: sort by (index, chip).
            free.sort(key=lambda g: store.locate(g)[:0:-1])
            for start in range(0, len(free) - blocks_per_zone + 1, blocks_per_zone):
                blocks = free[start : start + blocks_per_zone]
                for gid in blocks:
                    store.owner[gid] = owner_id
                self.zones.append(Zone(zone_id, blocks, store))
                zone_id += 1
        if not self.zones:
            raise ZnsError("no unowned blocks available for any zone")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def zone(self, zone_id: int) -> Zone:
        """Look up a zone by id."""
        if not 0 <= zone_id < len(self.zones):
            raise ZnsError(f"unknown zone {zone_id}")
        return self.zones[zone_id]

    def open_zone_count(self) -> int:
        """Zones currently in the OPEN state."""
        return sum(1 for zone in self.zones if zone.state is ZoneState.OPEN)

    def zones_in(self, state: ZoneState) -> list:
        """All zones currently in ``state``."""
        return [zone for zone in self.zones if zone.state is state]

    @property
    def zone_capacity_pages(self) -> int:
        """Capacity of one zone in pages (zones are uniform)."""
        return self.zones[0].capacity_pages

    def report_zones(self) -> list:
        """The NVMe "report zones" view: one dict per zone.

        Returns zone id, state, write pointer, capacity, and channel —
        what a host's zone-management layer polls.
        """
        return [
            {
                "zone_id": zone.zone_id,
                "state": zone.state.value,
                "write_pointer": zone.write_pointer,
                "capacity_pages": zone.capacity_pages,
                "channel": zone.channel_id,
                "resets": zone.resets,
            }
            for zone in self.zones
        ]

    # ------------------------------------------------------------------
    # Zone management commands
    # ------------------------------------------------------------------
    def open_zone(self, zone_id: int) -> None:
        """Explicitly open a zone, honoring the open-zone limit."""
        zone = self.zone(zone_id)
        if zone.state is ZoneState.OPEN:
            return
        if self.open_zone_count() >= self.max_open_zones:
            raise ZnsError(
                f"open-zone limit ({self.max_open_zones}) reached"
            )
        zone.open()

    def close_zone(self, zone_id: int) -> None:
        """Close an open zone, freeing an open-zone slot."""
        self.zone(zone_id).close()

    def reset_zone(self, zone_id: int) -> float:
        """Reset a zone: erase its blocks; returns the finish time (us).

        Block erases are charged on the zone's channel like GC erases.
        """
        zone = self.zone(zone_id)
        store = self.store
        erasable = [gid for gid in zone.blocks if store.state[gid] is not BlockState.FREE]
        zone.reset()
        done = self.ssd.sim.now
        channel = self.ssd.channels[zone.channel_id]
        for gid in erasable:
            for page, _lpn in store.valid_lpns(gid):
                store.invalidate(gid, page)
            _channel, chip_id, _index = store.locate(gid)
            finish = channel.occupy_for_gc(chip_id, migrate_reads=0, erases=1)
            done = max(done, finish)
            store.erase(gid)
        return done

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def append(self, zone_id: int, pages: int, front: bool = False) -> float:
        """Zone-append ``pages`` at the write pointer; returns finish time.

        Implicitly opens an EMPTY/CLOSED zone when a slot is available.
        """
        zone = self.zone(zone_id)
        if zone.state in (ZoneState.EMPTY, ZoneState.CLOSED):
            self.open_zone(zone_id)
        start_pointer = zone.write_pointer
        placements = zone.advance(pages)
        store = self.store
        channel = self.ssd.channels[zone.channel_id]
        done = self.ssd.sim.now
        for offset, (gid, _page) in enumerate(placements):
            store.program(gid, start_pointer + offset)
            _channel, chip_id, _index = store.locate(gid)
            done = max(done, channel.service_write(chip_id, front=front))
        self.appends += pages
        return done

    def read(self, zone_id: int, page_index: int, pages: int = 1, front: bool = False) -> float:
        """Read ``pages`` starting at a zone-relative page; finish time."""
        zone = self.zone(zone_id)
        if page_index + pages > zone.write_pointer:
            raise ZnsError(
                f"zone {zone_id}: read past the write pointer "
                f"({page_index + pages} > {zone.write_pointer})"
            )
        channel = self.ssd.channels[zone.channel_id]
        done = self.ssd.sim.now
        for offset in range(pages):
            gid, _page = zone.locate(page_index + offset)
            _channel, chip_id, _index = self.store.locate(gid)
            done = max(done, channel.service_read(chip_id, front=front))
        self.reads += pages
        return done
