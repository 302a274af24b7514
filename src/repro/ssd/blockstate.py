"""Structure-of-arrays state for the SSD simulator core.

A flash block is a row of device metadata, and a channel is its timing
columns.  This module holds both, allocated once at device construction:

* :class:`BlockStore` — per-block columns (state, owner, writer,
  owning gSB, write pointer, valid-page count) plus a preallocated
  ``(n_blocks, pages_per_block)`` page→LPN matrix and an erase-count
  vector.  A block is its dense global id (*gid*), laid out
  channel-major, chip-major::

      gid = channel_id * blocks_per_channel + chip_id * blocks_per_chip + index

  so ``gid // blocks_per_channel`` is the block's channel, ``gid //
  blocks_per_chip`` its slot in :attr:`ChannelArrays.chip_busy`, and one
  channel's blocks are a contiguous gid range (GC victim scans walk a
  slice).  Regions, ghost superblocks, zones, GC and the allocator hold
  and pass gids; nothing wraps a block in an object.

* :class:`ChannelArrays` — per-channel bus/chip busy horizons and the
  fault-scaled effective op timings, flattened so the hot capacity scan
  (``VssdFtl`` frontier picking) iterates one flat list instead of
  reading an attribute per channel object.

Layout note — why not *all* numpy: per-element access cost on this
interpreter was measured at ~10–27 ns for plain-list reads/writes versus
~55–177 ns for numpy scalar indexing (boxing an ``np.int32`` per access).
Columns that the event loop touches one element at a time (busy horizons,
write pointers, valid counts, block state) are therefore Python lists;
the page→LPN matrix (the dominant per-page memory) and the erase-count
vector (wear summaries) are numpy.  Both representations are
preallocated once and mutated in place, so hot loops can hoist a local
reference and never see a rebind.  The per-page paths reach the matrix
through its 2-D memoryview, ``page_lpns.data``: the same buffer, with a
Python int per element.  Measured on Python 3.11 (2-core host): a set
costs 130 ns through the view against 184 ns through the array, a
get-and-compare 146 ns against 354 ns.  ``VssdFtl`` takes the view once;
:meth:`BlockStore.restore` copies into the buffer, so it never detaches.

Two paths handle enough same-shaped work per call to cross the boundary
in bulk instead.  ``VssdFtl.warm_fill`` places a whole striping epoch
(thousands of pages) through :meth:`BlockStore.program_pages` and
:meth:`BlockStore.invalidate_pages`: one scatter into the matrix, one
``bincount``, then a list update per *touched block* — the list columns
are crossed once per block, not once per page.  The snapshot codec
(:mod:`repro.harness.snapshots`) converts whole list columns to arrays
and back with ``np.array`` / ``ndarray.tolist``.  Per-request paths
(``write_span``, ``read_span``) and GC copy-back (``VssdFtl._relocate``,
a few to a few dozen pages per victim, each choosing its destination
from the horizons the previous one moved) inline :meth:`BlockStore.program`
and :meth:`BlockStore.invalidate` on the lists and the matrix view; GC
crosses in bulk only to read a victim's row (:meth:`BlockStore.valid_lpns`:
one ``flatnonzero`` + ``tolist``).
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple

import numpy as np

#: Sentinel in :attr:`BlockStore.page_lpns` for an invalid/unwritten page.
NO_LPN = -1


class BlockState(enum.Enum):
    """Lifecycle of a flash block."""

    FREE = "free"      # erased, no data
    OPEN = "open"      # partially programmed write frontier
    FULL = "full"      # all pages programmed


class BlockStore:
    """Columnar per-block state for a device of ``num_channels`` channels.

    Every column is indexed by gid and allocated once; hot paths index
    them directly, cold paths call the per-gid methods below.  Pages of a
    block are programmed sequentially, mirroring NAND constraints.

    Ownership model (Section 3.6/3.7 of the paper):

    * ``owner`` — the vSSD that owns the physical resource (the *home*
      vSSD for harvested blocks).
    * ``writer`` — the vSSD whose data currently occupies the block.  For
      a block inside a harvested gSB this is the *harvest* vSSD; otherwise
      it equals ``owner``.
    * ``gsb_of`` — the id of the ghost superblock the block belongs to,
      ``-1`` for none.  ``gsb_of[gid] >= 0`` is the Harvested Block
      Table bit: GC prioritizes such blocks as victims and copies their
      valid data back to the writer's own blocks.
    """

    __slots__ = (
        "chips_per_channel",
        "blocks_per_chip",
        "blocks_per_channel",
        "n_blocks",
        "pages_per_block",
        "page_lpns",
        "erase_count",
        "state",
        "owner",
        "writer",
        "gsb_of",
        "write_ptr",
        "valid_count",
        "__weakref__",  # the teardown suite watches the store die with its cell
    )

    def __init__(
        self,
        num_channels: int,
        chips_per_channel: int,
        blocks_per_chip: int,
        pages_per_block: int,
    ) -> None:
        self.chips_per_channel = chips_per_channel
        self.blocks_per_chip = blocks_per_chip
        self.blocks_per_channel = chips_per_channel * blocks_per_chip
        self.n_blocks = n_blocks = num_channels * self.blocks_per_channel
        self.pages_per_block = pages_per_block
        #: ``page_lpns[gid, page]`` is the LPN stored at ``page`` or
        #: :data:`NO_LPN`.  One preallocated matrix replaces a per-block
        #: list of boxed optionals (the dominant per-page allocation).
        self.page_lpns: np.ndarray = np.full(
            (n_blocks, pages_per_block), NO_LPN, dtype=np.int32
        )
        self.erase_count: np.ndarray = np.zeros(n_blocks, dtype=np.int64)
        self.state: List[BlockState] = [BlockState.FREE] * n_blocks
        self.owner: List[Optional[int]] = [None] * n_blocks
        self.writer: List[Optional[int]] = [None] * n_blocks
        #: The only record of gSB membership: the owning gSB's id, or -1.
        #: Its sign is the Harvested Block Table (Section 3.7, Figure 9),
        #: set from a gSB's creation until its block is sent home; GC
        #: prefers set blocks as victims and copies their valid data back
        #: to the harvesting vSSD's own blocks.  Erasing leaves it alone.
        self.gsb_of: List[int] = [-1] * n_blocks
        self.write_ptr: List[int] = [0] * n_blocks
        self.valid_count: List[int] = [0] * n_blocks

    def locate(self, gid: int) -> Tuple[int, int, int]:
        """The block's ``(channel, chip, index)`` physical address."""
        chip_slot, index = divmod(gid, self.blocks_per_chip)
        channel, chip = divmod(chip_slot, self.chips_per_channel)
        return channel, chip, index

    def snapshot(self) -> dict:
        """Copy every mutable column (cheap: two array copies + lists).

        List elements are immutable (ints, ``None``,
        ``BlockState`` singletons), so shallow list copies fully detach
        the snapshot from the live store.
        """
        return {
            "page_lpns": self.page_lpns.copy(),
            "erase_count": self.erase_count.copy(),
            "state": list(self.state),
            "owner": list(self.owner),
            "writer": list(self.writer),
            "gsb_of": list(self.gsb_of),
            "write_ptr": list(self.write_ptr),
            "valid_count": list(self.valid_count),
        }

    def restore(self, snapshot: dict) -> None:
        """Overwrite the columns *in place* from a :meth:`snapshot`.

        In-place (``copyto`` / slice assignment) because hot loops hoist
        references to these columns; rebinding the attributes would
        silently detach every FTL and dispatcher that holds one.
        """
        np.copyto(self.page_lpns, snapshot["page_lpns"])
        np.copyto(self.erase_count, snapshot["erase_count"])
        self.state[:] = snapshot["state"]
        self.owner[:] = snapshot["owner"]
        self.writer[:] = snapshot["writer"]
        self.gsb_of[:] = snapshot["gsb_of"]
        self.write_ptr[:] = snapshot["write_ptr"]
        self.valid_count[:] = snapshot["valid_count"]

    # -- one block (cold paths; the spans and GC copy-back inline these) --
    def program(self, gid: int, lpn: int) -> int:
        """Program block ``gid``'s next sequential page with ``lpn``;
        returns the page index written.  Raises if the block is full."""
        page = self.write_ptr[gid]
        if page >= self.pages_per_block:
            raise RuntimeError(f"block {self.locate(gid)} is full")
        self.page_lpns[gid, page] = lpn
        self.valid_count[gid] += 1
        self.write_ptr[gid] = page + 1
        self.state[gid] = (
            BlockState.FULL if page + 1 == self.pages_per_block else BlockState.OPEN
        )
        return page

    def invalidate(self, gid: int, page: int) -> None:
        """Mark the data at ``page`` of block ``gid`` invalid (an
        out-of-place update)."""
        if self.page_lpns[gid, page] == NO_LPN:
            raise RuntimeError(
                f"double invalidate of page {page} in block {self.locate(gid)}"
            )
        self.page_lpns[gid, page] = NO_LPN
        self.valid_count[gid] -= 1

    def valid_lpns(self, gid: int) -> List[Tuple[int, int]]:
        """``(page, lpn)`` for every still-valid page of block ``gid``, in
        page order, as Python ints."""
        row = self.page_lpns[gid, : self.write_ptr[gid]]
        pages = np.flatnonzero(row != NO_LPN)
        return list(zip(pages.tolist(), row[pages].tolist()))

    def erase(self, gid: int) -> None:
        """Erase block ``gid``: FREE, no writer, one more erase of wear
        (its gSB, if any, keeps it).  Raises while it still holds valid
        pages."""
        if self.valid_count[gid] != 0:
            raise RuntimeError(
                f"erasing block {self.locate(gid)} with "
                f"{self.valid_count[gid]} valid pages"
            )
        self.state[gid] = BlockState.FREE
        self.write_ptr[gid] = 0
        self.page_lpns[gid].fill(NO_LPN)
        self.writer[gid] = None
        self.erase_count[gid] += 1

    # -- many pages at once (the warm fill) ------------------------------
    def program_pages(
        self, gids: np.ndarray, pages: np.ndarray, lpns: np.ndarray
    ) -> None:
        """:meth:`program` for many pages in one scatter.

        ``pages`` must continue each block's write pointer without gaps;
        the caller (``VssdFtl.warm_fill``) derives them from it.
        """
        ppb = self.pages_per_block
        if len(pages) and pages.max() >= ppb:
            full = int(gids[pages.argmax()])
            raise RuntimeError(f"block {self.locate(full)} is full")
        self.page_lpns[gids, pages] = lpns
        for gid, n in self._pages_per_block(gids):
            self.valid_count[gid] += n
            self.write_ptr[gid] += n
            self.state[gid] = (
                BlockState.FULL if self.write_ptr[gid] == ppb else BlockState.OPEN
            )

    def invalidate_pages(self, gids: np.ndarray, pages: np.ndarray) -> None:
        """:meth:`invalidate` for many distinct pages at once; raises
        before changing anything if one is already invalid."""
        stale = np.flatnonzero(self.page_lpns[gids, pages] == NO_LPN)
        if stale.size:
            first = int(stale[0])
            raise RuntimeError(
                f"double invalidate of page {int(pages[first])} in block "
                f"{self.locate(int(gids[first]))}"
            )
        self.page_lpns[gids, pages] = NO_LPN
        for gid, n in self._pages_per_block(gids):
            self.valid_count[gid] -= n

    def _pages_per_block(self, gids: np.ndarray) -> Iterator[Tuple[int, int]]:
        """``(gid, occurrences)`` as Python ints, for the list columns."""
        counts = np.bincount(gids, minlength=self.n_blocks)
        hit = np.flatnonzero(counts)
        return zip(hit.tolist(), counts[hit].tolist())


class ChannelArrays:
    """Flattened per-channel timing/fault state for ``num_channels``.

    ``chip_busy`` is flattened chip-major: chip ``k`` of channel ``c``
    lives at index ``c * chips_per_channel + k``.  All lists are mutated
    in place only, so loops may hoist local references across calls that
    update them (GC, fault transitions).
    """

    __slots__ = (
        "num_channels",
        "chips_per_channel",
        "bus_busy",
        "chip_busy",
        "eff_read_us",
        "eff_write_us",
        "eff_xfer_us",
        "eff_gc_xfer_us",
        "extra_latency_us",
        "slowdown",
        "offline",
    )

    def __init__(self, num_channels: int, chips_per_channel: int) -> None:
        self.num_channels = num_channels
        self.chips_per_channel = chips_per_channel
        #: Absolute sim time (us) until which queued bus work extends.
        self.bus_busy: List[float] = [0.0] * num_channels
        self.chip_busy: List[float] = [0.0] * (num_channels * chips_per_channel)
        #: Fault-slowdown-scaled op timings (see ``Channel._recompute_timing``).
        self.eff_read_us: List[float] = [0.0] * num_channels
        self.eff_write_us: List[float] = [0.0] * num_channels
        self.eff_xfer_us: List[float] = [0.0] * num_channels
        self.eff_gc_xfer_us: List[float] = [0.0] * num_channels
        self.extra_latency_us: List[float] = [0.0] * num_channels
        self.slowdown: List[float] = [1.0] * num_channels
        self.offline: List[bool] = [False] * num_channels

    #: Mutable per-channel columns, in a fixed order shared by
    #: :meth:`snapshot` and :meth:`restore` (and the on-disk encoding).
    COLUMNS = (
        "bus_busy",
        "chip_busy",
        "eff_read_us",
        "eff_write_us",
        "eff_xfer_us",
        "eff_gc_xfer_us",
        "extra_latency_us",
        "slowdown",
        "offline",
    )

    def snapshot(self) -> dict:
        """Copy every timing/fault column as a plain list."""
        return {name: list(getattr(self, name)) for name in self.COLUMNS}

    def restore(self, snapshot: dict) -> None:
        """Overwrite the columns in place (hot loops hoist references)."""
        for name in self.COLUMNS:
            getattr(self, name)[:] = snapshot[name]
