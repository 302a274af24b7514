"""Structure-of-arrays state for the SSD simulator core.

The simulator used to keep every piece of flash state behind one Python
object per block (``FlashBlock``) and per channel (``Channel``): a page
program touched half a dozen heap objects through attribute loads.  This
module flattens that state into two device-wide stores that are allocated
once at device construction:

* :class:`BlockStore` — per-block columns (state, owner, writer,
  harvested bit, write pointer, valid-page count) plus a preallocated
  ``(n_blocks, pages_per_block)`` page→LPN matrix and an erase-count
  vector.  Blocks are addressed by a dense global id (*gid*) laid out
  ``channel-major, chip-major``::

      gid = channel_id * blocks_per_channel + chip_id * blocks_per_chip + index

  which makes one channel's blocks a contiguous gid range — GC victim
  scans walk a slice instead of chasing object pointers.

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
reference and never see a rebind.

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
from the horizons the previous one moved) stay per-element on the lists;
GC crosses in bulk only to read a victim's row
(``FlashBlock.valid_lpns``: one ``flatnonzero`` + ``tolist``).

``FlashBlock`` (:mod:`repro.ssd.geometry`) remains the object API —
tests, the gSB pool, and the ZNS adapter keep their block handles — but
it is now a *view*: a ``(store, gid)`` pair whose properties read and
write these columns.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.geometry import FlashBlock

#: Sentinel in :attr:`BlockStore.page_lpns` for an invalid/unwritten page.
NO_LPN = -1


class BlockState(enum.Enum):
    """Lifecycle of a flash block."""

    FREE = "free"      # erased, no data
    OPEN = "open"      # partially programmed write frontier
    FULL = "full"      # all pages programmed


class BlockStore:
    """Columnar per-block state for ``n_blocks`` blocks.

    All columns are indexed by gid and allocated once; hot paths index
    them directly, cold paths go through the :class:`FlashBlock` view in
    ``blocks`` (populated by the device/channel constructors in gid
    order).
    """

    __slots__ = (
        "n_blocks",
        "pages_per_block",
        "page_lpns",
        "erase_count",
        "state",
        "owner",
        "writer",
        "harvested",
        "write_ptr",
        "valid_count",
        "blocks",
        "__weakref__",  # the teardown suite watches the store die with its cell
    )

    def __init__(self, n_blocks: int, pages_per_block: int) -> None:
        self.n_blocks = n_blocks
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
        self.harvested: List[bool] = [False] * n_blocks
        self.write_ptr: List[int] = [0] * n_blocks
        self.valid_count: List[int] = [0] * n_blocks
        #: gid → :class:`FlashBlock` view, appended in gid order as the
        #: owning channels construct their block lists.
        self.blocks: List["FlashBlock"] = []

    def snapshot(self) -> dict:
        """Copy every mutable column (cheap: two array copies + lists).

        The ``blocks`` view list is deliberately excluded — views are
        identity-stable ``(store, gid)`` pairs recreated by construction,
        not state.  List elements are immutable (ints, bools, ``None``,
        ``BlockState`` singletons), so shallow list copies fully detach
        the snapshot from the live store.
        """
        return {
            "page_lpns": self.page_lpns.copy(),
            "erase_count": self.erase_count.copy(),
            "state": list(self.state),
            "owner": list(self.owner),
            "writer": list(self.writer),
            "harvested": list(self.harvested),
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
        self.harvested[:] = snapshot["harvested"]
        self.write_ptr[:] = snapshot["write_ptr"]
        self.valid_count[:] = snapshot["valid_count"]

    def program_pages(
        self, gids: np.ndarray, pages: np.ndarray, lpns: np.ndarray
    ) -> None:
        """``FlashBlock.program`` for many pages in one scatter.

        ``pages`` must continue each block's write pointer without gaps;
        the caller (``VssdFtl.warm_fill``) derives them from it.
        """
        ppb = self.pages_per_block
        if len(pages) and pages.max() >= ppb:
            full = self.blocks[int(gids[pages.argmax()])]
            raise RuntimeError(f"block {full.block_id} is full")
        self.page_lpns[gids, pages] = lpns
        for gid, n in self._pages_per_block(gids):
            self.valid_count[gid] += n
            self.write_ptr[gid] += n
            self.state[gid] = (
                BlockState.FULL if self.write_ptr[gid] == ppb else BlockState.OPEN
            )

    def invalidate_pages(self, gids: np.ndarray, pages: np.ndarray) -> None:
        """``FlashBlock.invalidate`` for many distinct pages at once;
        raises before changing anything if one is already invalid."""
        stale = np.flatnonzero(self.page_lpns[gids, pages] == NO_LPN)
        if stale.size:
            first = int(stale[0])
            raise RuntimeError(
                f"double invalidate of page {int(pages[first])} in block "
                f"{self.blocks[int(gids[first])].block_id}"
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
