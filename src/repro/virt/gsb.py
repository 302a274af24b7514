"""Ghost superblocks (gSBs) and the gSB pool — Section 3.6.

A gSB packages harvestable free blocks striped across one or more
channels; it holds them as block gids.  Its metadata mirrors Figure 7:
channel count, capacity, the
home vSSD that gave up the resources, the harvesting vSSD (if any), and
the in-use flag.  The pool keeps one list per channel-count, indexed and
sorted by ``n_chls`` for best-fit search (the paper uses lock-free linked
lists for concurrency; a deque is the single-threaded equivalent).

The pool also numbers the gSBs it is given: one pool per device, so the
ids that ``BlockStore.gsb_of`` records are unique.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.region import WriteRegion


class GhostSuperblock:
    """Metadata of one ghost superblock (Figure 7)."""

    def __init__(
        self, n_chls: int, blocks: list, home_vssd: int, blocks_per_channel: int
    ) -> None:
        if n_chls <= 0:
            raise ValueError("a gSB must stripe across at least one channel")
        if not blocks:
            raise ValueError("a gSB must contain blocks")
        #: Issued by the first :meth:`GsbPool.insert`; -1 until then.
        self.gsb_id = -1
        self.n_chls = n_chls
        #: Gids of the blocks currently belonging to the gSB.
        self.blocks = list(blocks)
        #: The device's block layout, which places gid ``g`` on channel
        #: ``g // blocks_per_channel``.
        self.blocks_per_channel = blocks_per_channel
        self.home_vssd = home_vssd
        self.harvest_vssd: Optional[int] = None
        self.in_use = False
        #: Set when the home vSSD asked for the gSB back while it was
        #: harvested; blocks then drain home lazily through GC.
        self.reclaiming = False
        #: The write region installed in the harvester's FTL while in use.
        self.region: Optional["WriteRegion"] = None

    @property
    def capacity_blocks(self) -> int:
        """Blocks currently belonging to the gSB."""
        return len(self.blocks)

    @property
    def channel_ids(self) -> list:
        """Distinct channels the gSB's blocks stripe across."""
        bpc = self.blocks_per_channel
        return sorted({gid // bpc for gid in self.blocks})

    def capacity_bytes(self, block_size: int) -> int:
        """The gSB's capacity in bytes given a block size."""
        return self.capacity_blocks * block_size

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"GhostSuperblock(#{self.gsb_id}, n_chls={self.n_chls}, "
            f"blocks={self.capacity_blocks}, home={self.home_vssd}, "
            f"harvester={self.harvest_vssd}, in_use={self.in_use})"
        )


class GsbPool:
    """Harvestable gSBs indexed by channel count for best-fit search."""

    def __init__(self, max_channels: int) -> None:
        if max_channels <= 0:
            raise ValueError("max_channels must be positive")
        self.max_channels = max_channels
        self._lists: dict = {n: deque() for n in range(1, max_channels + 1)}
        self._next_id = 0

    def insert(self, gsb: GhostSuperblock) -> None:
        """Add a free gSB at the head of its n_chls list, issuing its
        id on first insertion."""
        if gsb.in_use:
            raise ValueError("cannot pool an in-use gSB")
        if gsb.n_chls > self.max_channels:
            raise ValueError(
                f"gSB spans {gsb.n_chls} channels, pool max is {self.max_channels}"
            )
        if gsb.gsb_id < 0:
            gsb.gsb_id = self._next_id
            self._next_id += 1
        # New gSBs go to the head of their list (Section 3.6.2).
        self._lists[gsb.n_chls].appendleft(gsb)

    def remove(self, gsb: GhostSuperblock) -> bool:
        """Remove a specific gSB (e.g. when its home reclaims it)."""
        try:
            self._lists[gsb.n_chls].remove(gsb)
            return True
        except (ValueError, KeyError):
            return False

    def acquire(
        self,
        n_chls: int,
        exclude_home: Optional[int] = None,
        predicate: Optional[Callable[[GhostSuperblock], bool]] = None,
    ) -> Optional[GhostSuperblock]:
        """Best-fit acquire (Section 3.6.2).

        Look for an exact ``n_chls`` match first; if its list is empty,
        search lists with *smaller* channel counts (largest first), and
        only then lists with larger counts (smallest first).  gSBs whose
        home is ``exclude_home`` are skipped — a vSSD may not harvest its
        own resources.  When ``predicate`` is given, only gSBs for which
        ``predicate(gsb)`` is true are eligible (e.g. skipping gSBs on
        fault-degraded channels).
        """
        n_chls = max(1, min(n_chls, self.max_channels))
        order = (
            [n_chls]
            + list(range(n_chls - 1, 0, -1))
            + list(range(n_chls + 1, self.max_channels + 1))
        )
        for size in order:
            bucket = self._lists[size]
            for gsb in bucket:
                if exclude_home is not None and gsb.home_vssd == exclude_home:
                    continue
                if predicate is not None and not predicate(gsb):
                    continue
                bucket.remove(gsb)
                return gsb
        return None

    def available(self, n_chls: Optional[int] = None) -> int:
        """Pooled gSB count, optionally for one channel-count list."""
        if n_chls is not None:
            return len(self._lists[n_chls])
        return sum(len(bucket) for bucket in self._lists.values())

    def peek_all(self) -> list:
        """All pooled gSBs (pool state is unchanged)."""
        return [gsb for bucket in self._lists.values() for gsb in bucket]
