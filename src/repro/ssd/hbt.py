"""Harvested Block Table (HBT) — Section 3.7, Figure 9.

One bit per physical block address: ``0`` for regular blocks, ``1`` for
harvested or reclaimed blocks.  GC prioritizes ``1`` blocks as victims and
copies their valid data back to the harvesting vSSD's own blocks; erasing
a block resets its bit to regular.

The bits are the device's ``BlockStore.harvested`` column, indexed by
block gid; the table holds no copy of them, so an erase or a snapshot
restore that writes the column is seen here at once.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.ssd.blockstate import BlockStore
from repro.ssd.geometry import FlashBlock


class HarvestedBlockTable:
    """Tracks which physical blocks are harvested/reclaimed.

    ``store`` is the device whose column :meth:`is_harvested` and
    ``len()`` read; a table built without one marks blocks all the same
    and reads as empty.
    """

    def __init__(self, store: Optional[BlockStore] = None) -> None:
        self.store = store

    def mark_harvested(self, block: FlashBlock) -> None:
        """Set the block's HBT bit to harvested/reclaimed (1)."""
        block.harvested_flag = True

    def mark_regular(self, block: FlashBlock) -> None:
        """Reset the block's HBT bit to regular (0) — done after erase."""
        block.harvested_flag = False

    def is_harvested(self, gid: int) -> bool:
        """Whether block ``gid``'s HBT bit is set (harvested/reclaimed)."""
        return self.store is not None and self.store.harvested[gid]

    def mark_many(self, blocks: Iterable[FlashBlock]) -> None:
        """Set the HBT bit on every given block."""
        for block in blocks:
            block.harvested_flag = True

    def __len__(self) -> int:
        return 0 if self.store is None else sum(self.store.harvested)

    def footprint_bits(self, total_blocks: int) -> int:
        """Storage cost in bits for a device with ``total_blocks`` blocks.

        The paper notes this is at most 0.5 MB for a 1 TB SSD with 4 MB
        blocks — one bit per block.
        """
        return total_blocks
