"""Write regions: the pools of programmable blocks an FTL stripes over.

A :class:`~repro.ssd.ftl.VssdFtl` has one ``"own"`` region and one
``"harvest"`` region per ghost superblock it has harvested (Section 3.6),
built and attached by the gSB manager or the ZNS adapter.  The frontier
is on the write path, so the bookkeeping is O(1) per page: free blocks
are per-channel deques (interleaved by chip so consecutive opens hit
different chips) and open frontiers rotate per channel.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.ssd.geometry import BlockState, FlashBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.blockstate import BlockStore


class WriteRegion:
    """A pool of programmable blocks grouped by channel.

    ``kind`` is ``"own"`` for the vSSD's own blocks or ``"harvest"`` for a
    harvested gSB's blocks.  A harvest region flips ``reclaiming`` when its
    gSB is being lazily reclaimed; from then on erased blocks leave the
    region through ``on_block_released`` instead of being recycled.

    Within a channel up to ``chips_per_channel`` blocks are open at once,
    rotated per program so writes exploit chip parallelism.
    """

    def __init__(
        self,
        region_id: str,
        kind: str = "own",
        on_block_released: Optional[Callable[[FlashBlock], None]] = None,
        max_open_per_channel: int = 4,
        purpose: str = "bandwidth",
        wear_aware: bool = False,
    ) -> None:
        if kind not in ("own", "harvest"):
            raise ValueError(f"unknown region kind {kind!r}")
        if purpose not in ("bandwidth", "capacity"):
            raise ValueError(f"unknown region purpose {purpose!r}")
        #: Pick the least-erased free block when opening a frontier, so
        #: erase wear spreads evenly (FlashBlox's uniform-lifetime goal).
        self.wear_aware = wear_aware
        self.region_id = region_id
        self.kind = kind
        #: "bandwidth" regions recycle by copying data back to the
        #: harvester's own blocks (Figure 9); "capacity" regions hold
        #: data long-term, so their GC stays inside the region
        #: (Section 5's capacity-harvesting extension).
        self.purpose = purpose
        self.reclaiming = False
        self.on_block_released = on_block_released
        self.max_open_per_channel = max_open_per_channel
        self._free: dict = {}   # channel -> deque[FlashBlock]
        self._open: dict = {}   # channel -> deque[FlashBlock] (rotated)
        self._channels: set = set()
        #: Identity set of every block ever added and not yet routed away.
        #: Needed to scope GC: two harvest regions of the same vSSD can
        #: share a channel, and writer/HBT flags alone cannot tell their
        #: blocks apart.
        self._member_ids: set = set()
        self._free_pages = 0
        #: Bumped whenever the set of writable channels may have changed;
        #: the FTL uses it to invalidate its cached striping order.
        self.version = 0

    # -- population ----------------------------------------------------
    def add_block(self, block: FlashBlock) -> None:
        """Add one FREE block to the region's free pool."""
        if not block.is_free:
            raise ValueError(f"region only accepts FREE blocks, got {block!r}")
        queue = self._free.get(block.channel_id)
        if queue is None:
            queue = self._free[block.channel_id] = deque()
        # Interleave chips: append so that consecutive pops alternate chips
        # when blocks were adopted in chip-sorted batches.
        queue.append(block)
        self._channels.add(block.channel_id)
        self._member_ids.add(id(block))
        self._free_pages += block.pages_per_block
        self.version += 1

    def add_blocks(self, blocks: Iterable[FlashBlock]) -> None:
        """Add FREE blocks, chip-interleaved for write parallelism."""
        # Sort so chips interleave in the free queues.
        ordered = sorted(blocks, key=lambda b: (b.index, b.chip_id, b.channel_id))
        for block in ordered:
            self.add_block(block)

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
        open_space = sum(
            block.free_pages for queue in self._open.values() for block in queue
        )
        return self._free_pages + open_space

    def free_block_count(self) -> int:
        """FREE blocks across all channels of the region."""
        return sum(len(q) for q in self._free.values())

    def free_block_count_on(self, channel_id: int) -> int:
        """FREE blocks on one channel of the region."""
        queue = self._free.get(channel_id)
        return len(queue) if queue else 0

    def contains(self, block: FlashBlock) -> bool:
        """True while ``block`` belongs to this region (any state)."""
        return id(block) in self._member_ids

    def take_free_blocks(self, channel_id: int, count: int) -> list:
        """Remove up to ``count`` FREE blocks on ``channel_id`` from the
        region (used when carving a gSB out of a vSSD's free space)."""
        queue = self._free.get(channel_id)
        taken: list = []
        while queue and len(taken) < count:
            block = queue.pop()
            taken.append(block)
            self._member_ids.discard(id(block))
            self._free_pages -= block.pages_per_block
        if taken:
            self.version += 1
        return taken

    # -- frontier --------------------------------------------------------
    def frontier_block(self, channel_id: int, writer: int) -> Optional[FlashBlock]:
        """Return an OPEN block on ``channel_id`` to program next.

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
            and open_queue[0].state is not BlockState.FULL
            and len(open_queue) >= self.max_open_per_channel
        ):
            open_queue = self.refresh_frontier(channel_id, writer)
            if not open_queue:
                self.version += 1  # channel exhausted: striping order changed
                return None
        block = open_queue[0]
        open_queue.rotate(-1)
        return block

    def refresh_frontier(self, channel_id: int, writer: int) -> deque:
        """Drop filled frontier heads on ``channel_id``, open free blocks
        up to ``max_open_per_channel``, and return the open queue.

        The non-rotating half of :meth:`frontier_block`.  Idempotent, and
        it touches only this channel's two queues, so a caller that knows
        the channel's next program is imminent may run it ahead of time.
        """
        open_queue = self._open.get(channel_id)
        if open_queue is None:
            open_queue = self._open[channel_id] = deque()
        while open_queue and open_queue[0].state is BlockState.FULL:
            open_queue.popleft()
        free_queue = self._free.get(channel_id)
        while len(open_queue) < self.max_open_per_channel and free_queue:
            if self.wear_aware:
                block = min(free_queue, key=lambda b: b.erase_count)
                free_queue.remove(block)
            else:
                block = free_queue.popleft()
            self._free_pages -= block.pages_per_block
            block.writer = writer
            open_queue.append(block)
        return open_queue

    def frontier_blocks(self) -> set:
        """Identity set of currently open blocks (GC must skip them)."""
        return {
            id(block) for queue in self._open.values() for block in queue
        }

    def release_erased(self, block: FlashBlock) -> None:
        """Route a freshly erased block per region policy."""
        self._discard_open(block)
        if self.kind == "harvest" and not self.reclaiming:
            self.add_block(block)
        elif self.on_block_released is not None:
            self._member_ids.discard(id(block))
            self.on_block_released(block)

    def _discard_open(self, block: FlashBlock) -> None:
        # Identity scan, not ``deque.remove``: threshold-GC victims are
        # never open, and a miss there formats the block into a ValueError.
        queue = self._open.get(block.channel_id)
        if queue:
            for position, candidate in enumerate(queue):
                if candidate is block:
                    del queue[position]
                    return

    def drain_free_blocks(self) -> list:
        """Remove and return every FREE block (used by gSB reclaim).

        This includes blocks that were popped into an open-frontier queue
        but never programmed — they are still physically erased.
        """
        drained: list = []
        for queue in self._free.values():
            drained.extend(queue)
            self._free_pages -= sum(b.pages_per_block for b in queue)
            queue.clear()
        for open_queue in self._open.values():
            untouched = [b for b in open_queue if b.is_free]
            for block in untouched:
                open_queue.remove(block)
                block.writer = None
                drained.append(block)
        for block in drained:
            self._member_ids.discard(id(block))
        self.version += 1
        return drained

    def snapshot(self) -> dict:
        """Capture membership and frontier order as plain gid lists.

        Blocks are encoded by gid (their identity in the device's
        :class:`~repro.ssd.blockstate.BlockStore`), preserving per-channel
        deque order exactly — frontier rotation is order-sensitive, so a
        restored region must pop and rotate the same blocks in the same
        sequence.
        """
        return {
            "free": {
                channel: [block.gid for block in queue]
                for channel, queue in self._free.items()
            },
            "open": {
                channel: [block.gid for block in queue]
                for channel, queue in self._open.items()
            },
            "channels": sorted(self._channels),
            "free_pages": self._free_pages,
            "version": self.version,
            "reclaiming": self.reclaiming,
        }

    def restore(self, snapshot: dict, store: "BlockStore") -> None:
        """Rebuild queues and the identity set from a :meth:`snapshot`.

        ``store.blocks`` views are identity-stable per gid, so the
        rebuilt ``_member_ids`` set matches what incremental updates
        would have produced.  Block *state* (writer, write pointer, page
        map) is the store's to restore; this only rebuilds the region's
        bookkeeping around it.
        """
        views = store.blocks
        self._free = {
            channel: deque(views[gid] for gid in gids)
            for channel, gids in snapshot["free"].items()
        }
        self._open = {
            channel: deque(views[gid] for gid in gids)
            for channel, gids in snapshot["open"].items()
        }
        self._channels = set(snapshot["channels"])
        self._member_ids = {
            id(block)
            for queue in list(self._free.values()) + list(self._open.values())
            for block in queue
        }
        self._free_pages = snapshot["free_pages"]
        self.version = snapshot["version"]
        self.reclaiming = snapshot["reclaiming"]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"WriteRegion({self.region_id}, kind={self.kind}, "
            f"free_blocks={self.free_block_count()}, reclaiming={self.reclaiming})"
        )
