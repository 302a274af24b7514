"""Write regions: the pools of programmable blocks an FTL stripes over.

A :class:`~repro.ssd.ftl.VssdFtl` has one ``"own"`` region and one
``"harvest"`` region per ghost superblock it has harvested (Section 3.6),
built and attached by the gSB manager or the ZNS adapter.  The frontier
is on the write path, so the bookkeeping is O(1) per page: free blocks
are per-channel deques (interleaved by chip so consecutive opens hit
different chips) and open frontiers rotate per channel.  Every queue
holds block gids into the device's
:class:`~repro.ssd.blockstate.BlockStore`; which gSB a block belongs to
is the store's ``gsb_of`` column, not the region's.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.ssd.blockstate import BlockState, BlockStore


class WriteRegion:
    """A pool of programmable blocks grouped by channel.

    ``gsb_id`` is ``-1`` for the vSSD's own blocks, or the id of the
    harvested gSB whose blocks the region writes.  A harvest region flips
    ``reclaiming`` when its gSB is being lazily reclaimed; from then on
    erased blocks queue for :meth:`take_released` instead of recycling.

    Within a channel up to ``chips_per_channel`` blocks are open at once,
    rotated per program so writes exploit chip parallelism.
    """

    def __init__(
        self,
        region_id: str,
        store: BlockStore,
        gsb_id: int = -1,
        max_open_per_channel: int = 4,
        purpose: str = "bandwidth",
        wear_aware: bool = False,
    ) -> None:
        if purpose not in ("bandwidth", "capacity"):
            raise ValueError(f"unknown region purpose {purpose!r}")
        #: Pick the least-erased free block when opening a frontier, so
        #: erase wear spreads evenly (FlashBlox's uniform-lifetime goal).
        self.wear_aware = wear_aware
        self.region_id = region_id
        self.store = store
        self.gsb_id = gsb_id
        #: "bandwidth" regions recycle by copying data back to the
        #: harvester's own blocks (Figure 9); "capacity" regions hold
        #: data long-term, so their GC stays inside the region
        #: (Section 5's capacity-harvesting extension).
        self.purpose = purpose
        self.reclaiming = False
        self.max_open_per_channel = max_open_per_channel
        self._free: dict = {}   # channel -> deque[gid]
        self._open: dict = {}   # channel -> deque[gid] (rotated)
        self._channels: set = set()
        self._released: list = []  # gids erased while reclaiming
        self._free_pages = 0
        #: Bumped whenever the set of writable channels may have changed;
        #: the FTL uses it to invalidate its cached striping order.
        self.version = 0

    # -- population ----------------------------------------------------
    def add_block(self, gid: int) -> None:
        """Add one FREE block to the region's free pool."""
        store = self.store
        if store.state[gid] is not BlockState.FREE:
            raise ValueError(
                f"region only accepts FREE blocks, got block {store.locate(gid)} "
                f"in state {store.state[gid].value}"
            )
        channel_id = gid // store.blocks_per_channel
        queue = self._free.get(channel_id)
        if queue is None:
            queue = self._free[channel_id] = deque()
        # Interleave chips: append so that consecutive pops alternate chips
        # when blocks were adopted in chip-sorted batches.
        queue.append(gid)
        self._channels.add(channel_id)
        self._free_pages += store.pages_per_block
        self.version += 1

    def add_blocks(self, gids: Iterable[int]) -> None:
        """Add FREE blocks, chip-interleaved for write parallelism."""
        # Sort by (index, chip, channel) so chips interleave in the free
        # queues.
        locate = self.store.locate
        for gid in sorted(gids, key=lambda g: locate(g)[::-1]):
            self.add_block(gid)

    # -- inspection ------------------------------------------------------
    def channels(self) -> list:
        """All channel ids this region has blocks on."""
        return sorted(self._channels)

    def can_write(self, channel_id: int) -> bool:
        """True if the channel has an open or openable block."""
        if self._free.get(channel_id):
            return True
        open_queue = self._open.get(channel_id)
        return bool(open_queue)

    def writable_channels(self) -> list:
        """Channels that can currently accept a program."""
        return [ch for ch in sorted(self._channels) if self.can_write(ch)]

    def free_pages(self) -> int:
        """Free (unprogrammed) pages in the region, including open space."""
        ppb = self.store.pages_per_block
        write_ptr = self.store.write_ptr
        open_space = sum(
            ppb - write_ptr[gid] for queue in self._open.values() for gid in queue
        )
        return self._free_pages + open_space

    def free_block_count(self) -> int:
        """FREE blocks across all channels of the region."""
        return sum(len(q) for q in self._free.values())

    def free_block_count_on(self, channel_id: int) -> int:
        """FREE blocks on one channel of the region."""
        queue = self._free.get(channel_id)
        return len(queue) if queue else 0

    def take_free_blocks(self, channel_id: int, count: int) -> list:
        """Remove up to ``count`` FREE blocks on ``channel_id`` from the
        region (used when carving a gSB out of a vSSD's free space)."""
        queue = self._free.get(channel_id)
        taken: list = []
        while queue and len(taken) < count:
            gid = queue.pop()
            taken.append(gid)
            self._free_pages -= self.store.pages_per_block
        if taken:
            self.version += 1
        return taken

    # -- frontier --------------------------------------------------------
    def frontier_block(self, channel_id: int, writer: int) -> Optional[int]:
        """Return the gid of an OPEN block on ``channel_id`` to program next.

        Rotates across up to ``max_open_per_channel`` open blocks (one per
        chip in steady state) so writes within a channel pipeline across
        chips.  Returns None when the channel is exhausted.
        """
        open_queue = self._open.get(channel_id)
        # Steady-state fast path (one hit per programmed page): a full
        # rotation of open frontiers with a non-FULL head needs no
        # drop/refill bookkeeping — identical to falling through below.
        if not (
            open_queue
            and self.store.state[open_queue[0]] is not BlockState.FULL
            and len(open_queue) >= self.max_open_per_channel
        ):
            open_queue = self.refresh_frontier(channel_id, writer)
            if not open_queue:
                self.version += 1  # channel exhausted: striping order changed
                return None
        gid = open_queue[0]
        open_queue.rotate(-1)
        return gid

    def refresh_frontier(self, channel_id: int, writer: int) -> deque:
        """Drop filled frontier heads on ``channel_id``, open free blocks
        up to ``max_open_per_channel``, and return the open queue.

        The non-rotating half of :meth:`frontier_block`.  Idempotent, and
        it touches only this channel's two queues, so a caller that knows
        the channel's next program is imminent may run it ahead of time.
        """
        store = self.store
        state = store.state
        open_queue = self._open.get(channel_id)
        if open_queue is None:
            open_queue = self._open[channel_id] = deque()
        while open_queue and state[open_queue[0]] is BlockState.FULL:
            open_queue.popleft()
        free_queue = self._free.get(channel_id)
        while len(open_queue) < self.max_open_per_channel and free_queue:
            if self.wear_aware:
                # The first least-erased block in queue order.
                gid = min(free_queue, key=store.erase_count.__getitem__)
                free_queue.remove(gid)
            else:
                gid = free_queue.popleft()
            self._free_pages -= store.pages_per_block
            store.writer[gid] = writer
            open_queue.append(gid)
        return open_queue

    def frontier_blocks(self) -> set:
        """Gids of the currently open blocks (GC must skip them)."""
        return {gid for queue in self._open.values() for gid in queue}

    def release_erased(self, gid: int) -> None:
        """Route a freshly erased harvest-region block: back to the free
        pool, or to :meth:`take_released` once reclaiming."""
        self._discard_open(gid)
        if self.reclaiming:
            self._released.append(gid)
        else:
            self.add_block(gid)

    def take_released(self) -> list:
        """Remove and return the released gids, in release order."""
        released, self._released = self._released, []
        return released

    def _discard_open(self, gid: int) -> None:
        # Threshold-GC victims are never open, so a miss is the common case.
        queue = self._open.get(gid // self.store.blocks_per_channel)
        if queue and gid in queue:
            queue.remove(gid)

    def drain_free_blocks(self) -> list:
        """Remove and return every FREE block (used by gSB reclaim).

        This includes blocks that were popped into an open-frontier queue
        but never programmed — they are still physically erased.
        """
        store = self.store
        drained: list = []
        for queue in self._free.values():
            drained.extend(queue)
            self._free_pages -= len(queue) * store.pages_per_block
            queue.clear()
        for open_queue in self._open.values():
            untouched = [g for g in open_queue if store.state[g] is BlockState.FREE]
            for gid in untouched:
                open_queue.remove(gid)
                store.writer[gid] = None
                drained.append(gid)
        self.version += 1
        return drained

    def snapshot(self) -> dict:
        """Capture the free and open queues as plain gid lists.

        Per-channel deque order is preserved exactly — frontier rotation
        is order-sensitive, so a restored region must pop and rotate the
        same blocks in the same sequence.
        """
        return {
            "free": {channel: list(queue) for channel, queue in self._free.items()},
            "open": {channel: list(queue) for channel, queue in self._open.items()},
            "channels": sorted(self._channels),
            "free_pages": self._free_pages,
            "version": self.version,
            "reclaiming": self.reclaiming,
        }

    def restore(self, snapshot: dict) -> None:
        """Rebuild the queues from a :meth:`snapshot`.

        Block *state* (writer, write pointer, page map) is the store's to
        restore; this only rebuilds the region's bookkeeping around it.
        """
        self._free = {
            channel: deque(gids) for channel, gids in snapshot["free"].items()
        }
        self._open = {
            channel: deque(gids) for channel, gids in snapshot["open"].items()
        }
        self._channels = set(snapshot["channels"])
        self._free_pages = snapshot["free_pages"]
        self.version = snapshot["version"]
        self.reclaiming = snapshot["reclaiming"]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"WriteRegion({self.region_id}, gsb_id={self.gsb_id}, "
            f"free_blocks={self.free_block_count()}, reclaiming={self.reclaiming})"
        )
