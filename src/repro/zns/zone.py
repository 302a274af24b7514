"""The zone abstraction: sequential-append regions over flash blocks."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.blockstate import BlockStore


class ZoneState(enum.Enum):
    """NVMe ZNS zone states (the subset a host manages)."""

    EMPTY = "empty"
    OPEN = "open"
    CLOSED = "closed"
    FULL = "full"


class ZoneError(RuntimeError):
    """A zone state-machine violation (write past capacity, bad reset...)."""


class Zone:
    """One zone: a fixed set of flash blocks written strictly in order.

    ``blocks`` are gids into ``store``, all on one channel.  The zone
    stripes across them page-by-page (block i gets pages i, i+n, i+2n,
    ...) so appends exploit chip parallelism the way the FTL's
    superblocks do, while the host-visible semantics stay strictly
    sequential: one write pointer, append-only, reset-to-reuse.
    """

    def __init__(self, zone_id: int, blocks: list, store: "BlockStore") -> None:
        if not blocks:
            raise ValueError("a zone needs at least one block")
        bpc = store.blocks_per_channel
        channels = {gid // bpc for gid in blocks}
        if len(channels) != 1:
            raise ValueError("a zone's blocks must share one channel")
        self.zone_id = zone_id
        self.blocks = list(blocks)
        self.store = store
        self.channel_id = blocks[0] // bpc
        self.state = ZoneState.EMPTY
        self.write_pointer = 0  # pages appended so far
        self.resets = 0

    @property
    def capacity_pages(self) -> int:
        """Total pages the zone can hold before it is FULL."""
        return len(self.blocks) * self.store.pages_per_block

    @property
    def remaining_pages(self) -> int:
        """Pages left before the zone fills."""
        return self.capacity_pages - self.write_pointer

    def locate(self, page_index: int) -> tuple:
        """(gid, page-in-block) for zone-relative ``page_index``."""
        if not 0 <= page_index < self.capacity_pages:
            raise ZoneError(
                f"zone {self.zone_id}: page {page_index} out of range"
            )
        return self.blocks[page_index % len(self.blocks)], page_index // len(self.blocks)

    def open(self) -> None:
        """EMPTY/CLOSED -> OPEN."""
        if self.state not in (ZoneState.EMPTY, ZoneState.CLOSED):
            raise ZoneError(f"zone {self.zone_id}: cannot open from {self.state}")
        self.state = ZoneState.OPEN

    def close(self) -> None:
        """OPEN -> CLOSED (keeps the write pointer)."""
        if self.state is not ZoneState.OPEN:
            raise ZoneError(f"zone {self.zone_id}: cannot close from {self.state}")
        self.state = ZoneState.CLOSED

    def finish(self) -> None:
        """Any writable state -> FULL (pads the rest implicitly)."""
        if self.state in (ZoneState.OPEN, ZoneState.CLOSED, ZoneState.EMPTY):
            self.write_pointer = self.capacity_pages
            self.state = ZoneState.FULL
        else:
            raise ZoneError(f"zone {self.zone_id}: cannot finish from {self.state}")

    def advance(self, pages: int) -> list:
        """Consume ``pages`` at the write pointer; returns placements.

        The caller (the namespace) is responsible for having OPENed the
        zone and for charging channel timing per placement.
        """
        if self.state is not ZoneState.OPEN:
            raise ZoneError(f"zone {self.zone_id}: append requires OPEN, is {self.state}")
        if pages > self.remaining_pages:
            raise ZoneError(
                f"zone {self.zone_id}: append of {pages} pages exceeds the "
                f"remaining {self.remaining_pages}"
            )
        placements = [
            self.locate(self.write_pointer + offset) for offset in range(pages)
        ]
        self.write_pointer += pages
        if self.write_pointer == self.capacity_pages:
            self.state = ZoneState.FULL
        return placements

    def reset(self) -> None:
        """FULL/OPEN/CLOSED -> EMPTY (the blocks get erased)."""
        if self.state is ZoneState.EMPTY:
            raise ZoneError(f"zone {self.zone_id}: reset of an EMPTY zone")
        self.write_pointer = 0
        self.state = ZoneState.EMPTY
        self.resets += 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Zone({self.zone_id}, ch={self.channel_id}, {self.state.value}, "
            f"wp={self.write_pointer}/{self.capacity_pages})"
        )
