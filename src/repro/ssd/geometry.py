"""Flash geometry primitives: blocks, page pointers, block lifecycle.

A :class:`FlashBlock` is the unit of erase and of ownership transfer
between vSSDs (ghost superblocks move whole blocks).  Pages within a block
must be programmed sequentially, mirroring NAND constraints.

Since the structure-of-arrays rewrite a block is a *view*: its mutable
state (lifecycle, ownership, write pointer, page→LPN mapping, wear) lives
in columnar form in a :class:`repro.ssd.blockstate.BlockStore` shared by
the whole device, and the properties below read/write those columns.
Handles stay identity-stable — one ``FlashBlock`` instance exists per
(store, gid) — so identity-keyed structures (region membership sets, the
gSB pool) work unchanged.  Constructing a block without a store (tests,
ad-hoc gSBs) makes a private single-block store, so the historical
four-argument constructor keeps working.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.ssd.blockstate import NO_LPN, BlockState, BlockStore

__all__ = ["BlockState", "PagePointer", "FlashBlock"]


class PagePointer:
    """Physical location of one logical page: (block, page index)."""

    __slots__ = ("block", "page")

    def __init__(self, block: "FlashBlock", page: int) -> None:
        self.block = block
        self.page = page

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PagePointer({self.block.block_id}, page={self.page})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PagePointer)
            and other.block is self.block
            and other.page == self.page
        )

    def __hash__(self) -> int:
        return hash((id(self.block), self.page))


class FlashBlock:
    """One erase block (a view over the device's :class:`BlockStore`).

    Ownership model (Section 3.6/3.7 of the paper):

    * ``owner`` — the vSSD that owns the physical resource (the *home*
      vSSD for harvested blocks).
    * ``writer`` — the vSSD whose data currently occupies the block.  For
      a block inside a harvested gSB this is the *harvest* vSSD; otherwise
      it equals ``owner``.
    * ``harvested_flag`` — the Harvested Block Table bit: 1 marks blocks
      that are harvested or reclaimed, which GC prioritizes as victims and
      whose valid data is copied back to the writer's own blocks.
    """

    __slots__ = (
        "store",
        "gid",
        "channel_id",
        "chip_id",
        "index",
        "pages_per_block",
    )

    def __init__(
        self,
        channel_id: int,
        chip_id: int,
        index: int,
        pages_per_block: int,
        store: Optional[BlockStore] = None,
        gid: int = 0,
    ) -> None:
        if store is None:
            store = BlockStore(1, pages_per_block)
            gid = 0
            store.blocks.append(self)
        self.store = store
        self.gid = gid
        self.channel_id = channel_id
        self.chip_id = chip_id
        self.index = index
        self.pages_per_block = pages_per_block

    # -- store-backed state --------------------------------------------
    @property
    def state(self) -> BlockState:
        """Lifecycle state (FREE/OPEN/FULL)."""
        return self.store.state[self.gid]

    @state.setter
    def state(self, value: BlockState) -> None:
        self.store.state[self.gid] = value

    @property
    def owner(self) -> Optional[int]:
        """vSSD owning the physical resource (None = unallocated)."""
        return self.store.owner[self.gid]

    @owner.setter
    def owner(self, value: Optional[int]) -> None:
        self.store.owner[self.gid] = value

    @property
    def writer(self) -> Optional[int]:
        """vSSD whose data currently occupies the block."""
        return self.store.writer[self.gid]

    @writer.setter
    def writer(self, value: Optional[int]) -> None:
        self.store.writer[self.gid] = value

    @property
    def harvested_flag(self) -> bool:
        """The Harvested Block Table bit."""
        return self.store.harvested[self.gid]

    @harvested_flag.setter
    def harvested_flag(self, value: bool) -> None:
        self.store.harvested[self.gid] = value

    @property
    def write_ptr(self) -> int:
        """Next sequential page to program."""
        return self.store.write_ptr[self.gid]

    @write_ptr.setter
    def write_ptr(self, value: int) -> None:
        self.store.write_ptr[self.gid] = value

    @property
    def valid_count(self) -> int:
        """Number of still-valid pages."""
        return self.store.valid_count[self.gid]

    @valid_count.setter
    def valid_count(self, value: int) -> None:
        self.store.valid_count[self.gid] = value

    @property
    def erase_count(self) -> int:
        """Lifetime erases (wear)."""
        return int(self.store.erase_count[self.gid])

    @erase_count.setter
    def erase_count(self, value: int) -> None:
        self.store.erase_count[self.gid] = value

    @property
    def page_lpns(self) -> List[Optional[int]]:
        """Per-page stored LPNs, ``None`` where invalid/unwritten.

        Compatibility view over the store's page→LPN row — built on
        demand (O(pages_per_block)), so hot paths index the matrix
        directly instead.
        """
        row = self.store.page_lpns[self.gid]
        return [int(lpn) if lpn != NO_LPN else None for lpn in row]

    # -- derived geometry ----------------------------------------------
    @property
    def block_id(self) -> Tuple[int, int, int]:
        """The (channel, chip, index) physical address tuple."""
        return (self.channel_id, self.chip_id, self.index)

    @property
    def free_pages(self) -> int:
        """Unprogrammed pages remaining in the block."""
        return self.pages_per_block - self.store.write_ptr[self.gid]

    @property
    def is_free(self) -> bool:
        """True if the block is erased and unprogrammed."""
        return self.store.state[self.gid] is BlockState.FREE

    # -- lifecycle ------------------------------------------------------
    def program(self, lpn: int) -> int:
        """Program the next sequential page with logical page ``lpn``.

        Returns the page index written.  Raises if the block is full or
        still FREE-but-unopened bookkeeping was skipped.
        """
        store = self.store
        gid = self.gid
        page = store.write_ptr[gid]
        if page >= self.pages_per_block:
            raise RuntimeError(f"block {self.block_id} is full")
        store.page_lpns[gid, page] = lpn
        store.valid_count[gid] += 1
        store.write_ptr[gid] = page + 1
        store.state[gid] = (
            BlockState.FULL if page + 1 == self.pages_per_block else BlockState.OPEN
        )
        return page

    def invalidate(self, page: int) -> None:
        """Mark the data at ``page`` invalid (out-of-place update)."""
        store = self.store
        gid = self.gid
        if store.page_lpns[gid, page] == NO_LPN:
            raise RuntimeError(
                f"double invalidate of page {page} in block {self.block_id}"
            )
        store.page_lpns[gid, page] = NO_LPN
        store.valid_count[gid] -= 1

    def valid_lpns(self) -> List[Tuple[int, int]]:
        """Pairs of (page index, lpn) for all still-valid pages."""
        store = self.store
        row = store.page_lpns[self.gid, : store.write_ptr[self.gid]]
        pages = np.flatnonzero(row != NO_LPN)
        return list(zip(pages.tolist(), row[pages].tolist()))

    def erase(self) -> None:
        """Erase the block, returning it to FREE with no owner of data."""
        store = self.store
        gid = self.gid
        if store.valid_count[gid] != 0:
            raise RuntimeError(
                f"erasing block {self.block_id} with {store.valid_count[gid]} valid pages"
            )
        store.state[gid] = BlockState.FREE
        store.write_ptr[gid] = 0
        store.page_lpns[gid].fill(NO_LPN)
        store.writer[gid] = None
        store.harvested[gid] = False
        store.erase_count[gid] += 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FlashBlock({self.block_id}, {self.state.value}, "
            f"valid={self.valid_count}/{self.pages_per_block}, owner={self.owner})"
        )
