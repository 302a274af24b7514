"""Per-vSSD flash translation layer with harvesting-aware GC.

Each vSSD runs its own FTL over the blocks it may write:

* its **own region** — blocks it owns (its allocated channels), and
* zero or more **harvest regions** — blocks of ghost superblocks (gSBs)
  it has harvested from collocated vSSDs (Section 3.6).

Host I/O has one route, :meth:`VssdFtl.write_span` /
:meth:`VssdFtl.read_span`: one call per request, every page run against
the device's block and channel columns.  Writes stripe round-robin across
every channel the FTL can currently write, which is how harvesting
converts into extra bandwidth.  Reads go wherever the page lives,
including harvested channels.  The spans, :meth:`VssdFtl.warm_fill` and
GC copy-back are each held to a per-page twin under ``tests/ssd/``
(``span_oracle.py``, ``warm_fill_oracle.py``, ``gc_oracle.py``).

Garbage collection follows Figure 9: victim selection prioritizes
harvested/reclaimed blocks (HBT bit = 1); their valid data is copied back
to the harvesting vSSD's *own* blocks; the erased block is marked regular
again.  Blocks of a *live* gSB are recycled back into the gSB so a
harvested channel keeps providing write bandwidth, while blocks of a
*reclaiming* gSB are handed back to their home vSSD.

The write path is on the simulator's critical path, so the FTL caches
its channel round-robin list, rebuilding it only when a region's capacity
shape changes, and :class:`repro.ssd.region.WriteRegion` is O(1) per page.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.config import SSDConfig
from repro.profiling import PROFILER
from repro.ssd.geometry import BlockState, FlashBlock, PagePointer
from repro.ssd.hbt import HarvestedBlockTable
from repro.ssd.region import WriteRegion

if TYPE_CHECKING:  # pragma: no cover
    from repro.ssd.device import Ssd


class OutOfSpaceError(RuntimeError):
    """Raised when a write cannot be placed even after urgent GC."""


@dataclass
class FtlStats:
    """Cumulative per-vSSD FTL counters."""

    host_reads: int = 0
    host_writes: int = 0
    unmapped_reads: int = 0
    gc_reads: int = 0
    gc_writes: int = 0
    gc_runs: int = 0
    blocks_erased: int = 0

    @property
    def write_amplification(self) -> float:
        """(host + GC writes) / host writes; 1.0 when GC never copied."""
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_writes) / self.host_writes


class VssdFtl:
    """Flash translation layer for one vSSD."""

    #: Max victims reclaimed per GC invocation, bounding GC stall length.
    GC_BATCH_BLOCKS = 2

    def __init__(
        self,
        vssd_id: int,
        ssd: "Ssd",
        hbt: Optional[HarvestedBlockTable] = None,
        gc_threshold: Optional[float] = None,
    ) -> None:
        self.vssd_id = vssd_id
        self.ssd = ssd
        self.config: SSDConfig = ssd.config
        self.hbt = hbt if hbt is not None else HarvestedBlockTable()
        self.gc_threshold = (
            gc_threshold if gc_threshold is not None else self.config.gc_free_block_threshold
        )
        # L2P mapping as parallel lists indexed by LPN (grown on demand).
        # Physical locations are block gids into the device's BlockStore
        # (``_l2p_gid[lpn] < 0`` marks an unmapped LPN), so the hot paths
        # never touch block objects.
        self._l2p_gid: list = []
        self._l2p_page: list = []
        self._mapped = 0
        # Hoisted structure-of-arrays references (stable for the device's
        # lifetime; all mutated in place, never rebound).
        self._store = ssd.store
        self._arrays = ssd.arrays
        self._blocks_per_channel = (
            self.config.chips_per_channel * self.config.blocks_per_chip
        )
        self._chan_stats = [channel.stats for channel in ssd.channels]
        # Sorted own-region channel list for unmapped reads, keyed by the
        # region version (sorted() per unmapped read was measurable).
        self._unmapped_channels: list = []
        self._unmapped_version = -1
        self.own_region = WriteRegion(
            f"own:{vssd_id}", kind="own",
            max_open_per_channel=self.config.chips_per_channel,
            wear_aware=self.config.wear_aware_allocation,
        )
        self.harvest_regions: list = []
        self.stats = FtlStats()
        self._write_rr = 0
        self._unmapped_rr = 0
        self._own_blocks_per_channel: dict = {}
        self._in_gc = False
        # Cached striping order: list of (region, channel_id).
        self._slots: list = []
        self._slots_version = -1
        # Cached channel_count(), keyed by the same regions version the
        # striping cache uses (the dispatcher calls it per admission check).
        self._chan_count = 1
        self._chan_count_version = -1
        # Queue-depth busy-horizon bound, hoisted off the per-page frontier
        # scan (the SSD config is fixed for the device's lifetime).
        self._qd_bound_us = self.config.max_queue_depth * self.config.bus_transfer_us

    # ------------------------------------------------------------------
    # Block population
    # ------------------------------------------------------------------
    def adopt_blocks(self, blocks: Iterable[FlashBlock]) -> None:
        """Add owned FREE blocks to the own region (initial allocation or
        blocks returned from a reclaimed gSB)."""
        blocks = list(blocks)
        for block in blocks:
            if block.owner != self.vssd_id:
                raise ValueError(
                    f"block {block.block_id} owned by {block.owner}, not {self.vssd_id}"
                )
            per_channel = self._own_blocks_per_channel
            per_channel[block.channel_id] = per_channel.get(block.channel_id, 0) + 1
        self.own_region.add_blocks(blocks)

    def surrender_free_blocks(self, channel_id: int, count: int) -> list:
        """Give up FREE owned blocks on ``channel_id`` (gSB creation).

        Returns the surrendered blocks; the caller transfers ownership.
        """
        taken = self.own_region.take_free_blocks(channel_id, count)
        if taken:
            per_channel = self._own_blocks_per_channel
            per_channel[channel_id] = per_channel.get(channel_id, 0) - len(taken)
        return taken

    def add_harvest_region(self, region: WriteRegion) -> None:
        """Attach a harvested gSB's blocks as a writable region."""
        if region.kind != "harvest":
            raise ValueError("add_harvest_region requires a harvest region")
        self.harvest_regions.append(region)
        self._slots_version = -1

    def remove_harvest_region(self, region: WriteRegion) -> None:
        """Detach a harvest region (after its gSB is reclaimed)."""
        self.harvest_regions.remove(region)
        self._slots_version = -1

    # ------------------------------------------------------------------
    # Capacity / state inspection
    # ------------------------------------------------------------------
    def write_channels(self) -> list:
        """Channels this FTL can currently program, own + harvested."""
        chans = set(self.own_region.writable_channels())
        for region in self.harvest_regions:
            if not region.reclaiming:
                chans.update(region.writable_channels())
        return sorted(chans)

    def free_pages(self) -> int:
        """Free pages in the own region (the vSSD's available capacity)."""
        return self.own_region.free_pages()

    def channel_count(self) -> int:
        """Channels this vSSD currently touches (own + live harvested)."""
        version = self._regions_version()
        if version != self._chan_count_version:
            count = len(self.own_region._channels)
            for region in self.harvest_regions:
                if not region.reclaiming:
                    count += len(region._channels)
            self._chan_count = max(count, 1)
            self._chan_count_version = version
        return self._chan_count

    def free_fraction(self, channel_id: Optional[int] = None) -> float:
        """FREE fraction of owned blocks, per channel or overall."""
        if channel_id is None:
            owned = sum(self._own_blocks_per_channel.values())
            free = self.own_region.free_block_count()
            return free / owned if owned else 0.0
        owned = self._own_blocks_per_channel.get(channel_id, 0)
        if owned <= 0:
            return 0.0
        return self.own_region.free_block_count_on(channel_id) / owned

    def mapped_pages(self) -> int:
        """Number of live logical pages (the vSSD's used capacity)."""
        return self._mapped

    @property
    def page_map(self) -> dict:
        """The L2P mapping as ``{lpn: PagePointer}`` (built on demand).

        Compatibility/introspection view over the array-backed mapping —
        O(mapped pages) to build, so hot paths use the arrays directly.
        """
        gids = self._l2p_gid
        pages = self._l2p_page
        views = self._store.blocks
        return {
            lpn: PagePointer(views[gid], pages[lpn])
            for lpn, gid in enumerate(gids)
            if gid >= 0
        }

    # ------------------------------------------------------------------
    # Warm-state snapshot/restore
    # ------------------------------------------------------------------
    #: FtlStats counters captured by :meth:`snapshot`, in a fixed order
    #: shared with the on-disk encoding.
    STATS_FIELDS = (
        "host_reads",
        "host_writes",
        "unmapped_reads",
        "gc_reads",
        "gc_writes",
        "gc_runs",
        "blocks_erased",
    )

    def snapshot(self) -> dict:
        """Capture this FTL's post-warm state as plain lists and ints.

        Only supported before any gSB traffic: harvest regions hold
        references to blocks shared with the gSB manager, which a cheap
        columnar snapshot cannot re-link.  The warm-state cache only
        snapshots right after build+warm, where no gSB can exist yet.
        """
        if self.harvest_regions:
            raise ValueError(
                "cannot snapshot an FTL with attached harvest regions"
            )
        if self._in_gc:
            raise ValueError("cannot snapshot an FTL mid-GC")
        return {
            "l2p_gid": list(self._l2p_gid),
            "l2p_page": list(self._l2p_page),
            "mapped": self._mapped,
            "write_rr": self._write_rr,
            "unmapped_rr": self._unmapped_rr,
            "own_blocks_per_channel": dict(self._own_blocks_per_channel),
            "stats": {name: getattr(self.stats, name) for name in self.STATS_FIELDS},
            "own_region": self.own_region.snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        """Reset to a :meth:`snapshot`, in place where hot loops hoist.

        The lazily rebuilt caches (striping slots, unmapped channel
        order, channel count) are invalidated rather than restored —
        their rebuild is deterministic, so first use after a restore
        produces exactly what incremental updates would have.
        """
        if self.harvest_regions:
            raise ValueError(
                "cannot restore over an FTL with attached harvest regions"
            )
        self._l2p_gid[:] = snapshot["l2p_gid"]
        self._l2p_page[:] = snapshot["l2p_page"]
        self._mapped = snapshot["mapped"]
        self._write_rr = snapshot["write_rr"]
        self._unmapped_rr = snapshot["unmapped_rr"]
        self._own_blocks_per_channel = dict(snapshot["own_blocks_per_channel"])
        for name in self.STATS_FIELDS:
            setattr(self.stats, name, snapshot["stats"][name])
        self.own_region.restore(snapshot["own_region"], self._store)
        self._in_gc = False
        self._slots_version = -1
        self._unmapped_version = -1
        self._chan_count_version = -1

    # ------------------------------------------------------------------
    # Host I/O: the fused spans are the only way a host page reaches flash
    # ------------------------------------------------------------------
    def write_span(self, lpn: int, num_pages: int, front: bool = False) -> tuple:
        """Write ``num_pages`` consecutive logical pages in one fused pass.

        Returns ``(done_us, pages_by_channel)``: the completion time of
        the slowest page, and channel id → pages placed there (insertion-
        ordered by first use) for the dispatcher's per-channel accounting.
        ``front`` requests priority bus arbitration (Set_Priority HIGH).

        Per page: pick a frontier block, program it, remap the LPN and
        invalidate its previous copy, charge the channel a page program,
        check the GC trigger.  The steady state of each step — one turn of
        :meth:`_pick_frontier`'s round-robin, ``WriteRegion.frontier_block``,
        ``FlashBlock.program`` / ``invalidate``, ``Channel.service_write`` —
        is inlined against the structure-of-arrays columns: no method call,
        no per-page object.  A frontier refill calls ``frontier_block``; an
        exhausted channel, urgent GC and :class:`OutOfSpaceError` belong to
        :meth:`_frontier_or_urgent_gc`.

        GC trigger, after every page unless a collection is already
        running: if this vSSD owns blocks on the page's channel and fewer
        than ``gc_threshold`` of them are FREE, :meth:`run_gc` there.
        Otherwise (a harvested channel, or an own one not below threshold)
        the first live harvest region on that channel with no FREE block
        left is recycled, so the harvested channel keeps taking writes.

        Held to the per-page twin in ``tests/ssd/span_oracle.py`` by
        ``tests/ssd/test_span_differential.py``.
        """
        store = self._store
        arrays = self._arrays
        state_col = store.state
        wp_col = store.write_ptr
        vc_col = store.valid_count
        lpns2d = store.page_lpns
        bus_busy = arrays.bus_busy
        chip_busy = arrays.chip_busy
        offline = arrays.offline
        eff_write = arrays.eff_write_us
        eff_xfer = arrays.eff_xfer_us
        extra_lat = arrays.extra_latency_us
        chan_stats = self._chan_stats
        chips = self.config.chips_per_channel
        ppb = self.config.pages_per_block
        full_state = BlockState.FULL
        open_state = BlockState.OPEN
        # sim.now is constant for the whole span: nothing here fires
        # events, and schedule() never advances the clock.
        now = self.ssd.sim.now
        bound = self._qd_bound_us
        own_region = self.own_region
        own_free = own_region._free
        own_bpc = self._own_blocks_per_channel
        gc_threshold = self.gc_threshold
        harvest_regions = self.harvest_regions
        vssd = self.vssd_id
        l2p_gid = self._l2p_gid
        l2p_page = self._l2p_page
        end = lpn + num_pages
        if end > len(l2p_gid):
            grow = end - len(l2p_gid)
            l2p_gid.extend([-1] * grow)
            l2p_page.extend([0] * grow)
        pages_by_channel: dict = {}
        done = now
        host_writes = 0
        try:
            for cur in range(lpn, end):
                # -- _pick_frontier's round-robin, inlined -------------
                rv = own_region.version
                for hregion in harvest_regions:
                    rv += hregion.version + (1000003 if hregion.reclaiming else 0)
                if self._slots_version != rv:
                    self._rebuild_slots()
                slots = self._slots
                block = None
                if slots:
                    n = len(slots)
                    start = self._write_rr
                    idx = start % n
                    choice = None
                    for k in range(n):
                        region, channel_id = slots[idx]
                        idx += 1
                        if idx == n:
                            idx = 0
                        if (
                            not offline[channel_id]
                            and bus_busy[channel_id] - now < bound
                        ):
                            choice = (region, channel_id, k)
                            break
                    if choice is None:
                        best = slots[0]
                        best_key = bus_busy[best[1]] - now
                        if best_key < 0.0:
                            best_key = 0.0
                        for slot in slots:
                            horizon = bus_busy[slot[1]] - now
                            if horizon < 0.0:
                                horizon = 0.0
                            if horizon < best_key:
                                best, best_key = slot, horizon
                        region, channel_id = best
                        self._write_rr = start + 1
                    else:
                        region, channel_id, k = choice
                        self._write_rr = start + k + 1
                    # -- frontier_block steady state, inlined ----------
                    open_queue = region._open.get(channel_id)
                    if (
                        open_queue
                        and len(open_queue) >= region.max_open_per_channel
                    ):
                        head = open_queue[0]
                        if state_col[head.gid] is not full_state:
                            open_queue.rotate(-1)
                            block = head
                    if block is None:
                        block = region.frontier_block(channel_id, vssd)
                if block is None:
                    # Channel exhausted or no slots: the full picking
                    # loop, then urgent GC, then out of space.
                    block = self._frontier_or_urgent_gc()
                gid = block.gid
                channel_id = block.channel_id
                chip_id = block.chip_id
                # Read with the frontier in hand: urgent GC may move ``cur``.
                old_gid = l2p_gid[cur]
                old_page = l2p_page[cur]
                # -- FlashBlock.program, inlined -----------------------
                page = wp_col[gid]
                if page >= ppb:
                    raise RuntimeError(f"block {block.block_id} is full")
                lpns2d[gid, page] = cur
                vc_col[gid] += 1
                nxt = page + 1
                wp_col[gid] = nxt
                state_col[gid] = full_state if nxt == ppb else open_state
                l2p_gid[cur] = gid
                l2p_page[cur] = page
                if old_gid >= 0:
                    # -- FlashBlock.invalidate, inlined ----------------
                    if lpns2d[old_gid, old_page] == -1:
                        raise RuntimeError(
                            f"double invalidate of page {old_page} in block "
                            f"{store.blocks[old_gid].block_id}"
                        )
                    lpns2d[old_gid, old_page] = -1
                    vc_col[old_gid] -= 1
                else:
                    self._mapped += 1
                # -- Channel.service_write, inlined --------------------
                xfer = eff_xfer[channel_id]
                b = bus_busy[channel_id]
                if front:
                    nx = now + xfer
                    bus_available = b if b < nx else nx
                    m = now if now > bus_available else bus_available
                    xfer_done = m + xfer
                    nb = b if b > now else now
                    bus_busy[channel_id] = nb + xfer
                else:
                    xs = now if now > b else b
                    xfer_done = xs + xfer
                    bus_busy[channel_id] = xfer_done
                ci = channel_id * chips + chip_id
                ps = chip_busy[ci]
                if xfer_done > ps:
                    ps = xfer_done
                write_us = eff_write[channel_id]
                extra = extra_lat[channel_id]
                fin = ps + write_us + extra
                chip_busy[ci] = fin
                st = chan_stats[channel_id]
                st.pages_written += 1
                st.busy_us += write_us + xfer + extra
                if fin > done:
                    done = fin
                cnt = pages_by_channel.get(channel_id)
                pages_by_channel[channel_id] = 1 if cnt is None else cnt + 1
                host_writes += 1
                # -- GC trigger (policy in the docstring) --------------
                if not self._in_gc:
                    owned = own_bpc.get(channel_id, 0)
                    ran_gc = False
                    if owned > 0:
                        queue = own_free.get(channel_id)
                        free = len(queue) if queue else 0
                        if free / owned < gc_threshold:
                            self.run_gc(channel_id)
                            ran_gc = True
                    if not ran_gc:
                        for hregion in harvest_regions:
                            if (
                                not hregion.reclaiming
                                and channel_id in hregion._channels
                                and hregion.free_block_count_on(channel_id) == 0
                            ):
                                self.recycle_region(hregion, channel_id)
                                break
        finally:
            # Host-write counters are read only at window boundaries, so
            # one exact integer add per span replaces one per page; the
            # finally keeps the pages a span placed before it ran out of
            # space counted.
            if host_writes:
                self.stats.host_writes += host_writes
        return done, pages_by_channel

    def read_span(self, lpn: int, num_pages: int, front: bool = False) -> tuple:
        """Read ``num_pages`` consecutive logical pages in one fused pass.

        Returns ``(done_us, pages_by_channel)``; see :meth:`write_span`.
        A mapped page is read where it lives, own or harvested channel
        (``Channel.service_read``, inlined); ``front`` puts its transfer at
        the head of the bus queue.

        A never-written LPN still costs a page read, so reads of a cold
        address space load the device: the vSSD's own channels take turns
        (``_unmapped_rr`` over the sorted own channels; the writable
        channels if it owns none), on the channel's next chip in turn,
        always at normal priority — ``front`` does not apply.  With no
        channel at all it raises :class:`OutOfSpaceError`.
        """
        store = self._store
        arrays = self._arrays
        views = store.blocks
        bus_busy = arrays.bus_busy
        chip_busy = arrays.chip_busy
        eff_read = arrays.eff_read_us
        eff_xfer = arrays.eff_xfer_us
        extra_lat = arrays.extra_latency_us
        chan_stats = self._chan_stats
        chips = self.config.chips_per_channel
        now = self.ssd.sim.now
        channels = self.ssd.channels
        l2p_gid = self._l2p_gid
        length = len(l2p_gid)
        pages_by_channel: dict = {}
        done = now
        host_reads = 0
        unmapped = 0
        try:
            for cur in range(lpn, lpn + num_pages):
                gid = l2p_gid[cur] if cur < length else -1
                if gid < 0:
                    # -- unmapped read (rule in the docstring) ---------
                    chs = self._own_channels_sorted() or self.write_channels()
                    if not chs:
                        raise OutOfSpaceError(
                            f"vSSD {self.vssd_id} has no channels to read from"
                        )
                    channel_id = chs[self._unmapped_rr % len(chs)]
                    self._unmapped_rr += 1
                    channel = channels[channel_id]
                    chip_id = channel._next_write_chip
                    channel._next_write_chip = (chip_id + 1) % chips
                    use_front = False
                    unmapped += 1
                else:
                    view = views[gid]
                    channel_id = view.channel_id
                    chip_id = view.chip_id
                    use_front = front
                # -- Channel.service_read, inlined ---------------------
                read_us = eff_read[channel_id]
                xfer = eff_xfer[channel_id]
                extra = extra_lat[channel_id]
                ci = channel_id * chips + chip_id
                ss = chip_busy[ci]
                if now > ss:
                    ss = now
                sense_done = ss + read_us
                b = bus_busy[channel_id]
                if use_front:
                    nx = now + xfer
                    bus_available = b if b < nx else nx
                    xs = sense_done if sense_done > bus_available else bus_available
                    fin = xs + xfer + extra
                    nb = b if b > now else now
                    bus_busy[channel_id] = nb + xfer + extra
                else:
                    xs = sense_done if sense_done > b else b
                    fin = xs + xfer + extra
                    bus_busy[channel_id] = fin
                if fin > chip_busy[ci]:
                    chip_busy[ci] = fin
                st = chan_stats[channel_id]
                st.pages_read += 1
                st.busy_us += read_us + xfer + extra
                host_reads += 1
                if fin > done:
                    done = fin
                cnt = pages_by_channel.get(channel_id)
                pages_by_channel[channel_id] = 1 if cnt is None else cnt + 1
        finally:
            if host_reads:
                self.stats.host_reads += host_reads
            if unmapped:
                self.stats.unmapped_reads += unmapped
        return done, pages_by_channel

    def _own_channels_sorted(self) -> list:
        """Sorted own-region channels, cached by region version."""
        own = self.own_region
        if self._unmapped_version != own.version:
            self._unmapped_channels = sorted(own._channels)
            self._unmapped_version = own.version
        return self._unmapped_channels

    def page_location(self, lpn: int) -> Optional[PagePointer]:
        """Physical location of ``lpn``, or None if never written."""
        l2p = self._l2p_gid
        if lpn >= len(l2p) or lpn < 0:
            return None
        gid = l2p[lpn]
        if gid < 0:
            return None
        return PagePointer(self._store.blocks[gid], self._l2p_page[lpn])

    def warm_fill(self, lpns: Iterable[int]) -> int:
        """Program pages without consuming simulated time.

        Used to warm a vSSD before an experiment (the paper warms each
        vSSD until at least 50% of its free blocks are consumed so GC is
        exercised during measurement).  Mapping and block state change;
        channel timing and host-write statistics do not, no randomness is
        drawn and no event is scheduled.  Returns the pages programmed.

        Placement is :meth:`write_span`'s per-page rule, applied an
        *epoch* at a time.  Nothing here moves the clock or a bus
        horizon, so the eligible ``(region, channel)`` slots and the order
        ``_write_rr`` visits them in are fixed, and a slot's open queue
        rotates one block per page: with ``width`` slots and ``depth``
        open blocks each, page ``i`` of an epoch lands on slot ``i % width``,
        on block ``turn % depth`` of its queue (``turn = i // width``), at
        that block's write pointer plus ``turn // depth``.  An epoch ends where
        that stops holding — a filled block reaches a queue head, a
        channel runs out of blocks, an LPN repeats (its earlier copy must
        be invalidated first) or the input ends.  The round-robin scan
        skips ineligible slots, so one pass over the eligible ones moves
        ``_write_rr`` by ``len(slots)``; with none eligible every page
        takes the least-busy slot and moves it by one.

        An epoch costs one scatter into ``page_lpns``, one gather/scatter
        invalidating the previous copies and one update per touched
        block.  Frontier upkeep is :meth:`WriteRegion.refresh_frontier`
        on exactly the slots the epoch writes; a slot that comes back
        empty is left to ``_allocate_and_program``, which owns channel
        exhaustion, urgent GC and :class:`OutOfSpaceError`.  The L2P
        lists are mirrored in numpy between such pages and written back
        through a table of the block views' own ``gid`` ints: every entry
        of a block shares one int object, as :meth:`write_span` stores it,
        not a fresh one per LPN for each snapshot copy to keep alive.
        The per-page loop this replaced is ``tests/ssd/warm_fill_oracle.py``.
        """
        todo = np.asarray(
            lpns if isinstance(lpns, np.ndarray) else list(lpns), dtype=np.int64
        )
        total = len(todo)
        if total and todo.min() < 0:
            raise ValueError(f"vSSD {self.vssd_id}: negative LPN in warm fill")
        store = self._store
        wp_col = store.write_ptr
        bus_busy = self._arrays.bus_busy
        offline = self._arrays.offline
        ppb = self.config.pages_per_block
        now = self.ssd.sim.now
        bound = self._qd_bound_us
        l2p_gid = self._l2p_gid
        l2p_page = self._l2p_page
        # Indexed by gid; -1 (unmapped) wraps round to the trailing -1.
        gid_ints = np.array([b.gid for b in store.blocks] + [-1], dtype=object)
        # ``m_*[:length]`` mirror the L2P lists; past it, unmapped.
        m_gid = np.full(max(len(l2p_gid), int(todo.max(initial=-1)) + 1), -1, dtype=np.int64)
        m_page = np.zeros(len(m_gid), dtype=np.int64)
        count = 0
        while count < total:
            length = len(l2p_gid)
            m_gid[:length] = l2p_gid
            m_page[:length] = l2p_page
            try:
                while count < total:
                    if self._slots_version != self._regions_version():
                        self._rebuild_slots()
                    slots = self._slots
                    n = len(slots)
                    start = self._write_rr
                    ring = [slots[(start + k) % n] for k in range(n)]
                    offsets = [
                        k for k, (_, channel_id) in enumerate(ring)
                        if not offline[channel_id] and bus_busy[channel_id] - now < bound
                    ]
                    visit = [ring[k] for k in offsets]
                    stride = n
                    if slots and not visit:
                        visit = [min(slots, key=lambda s: max(0.0, bus_busy[s[1]] - now))]
                        offsets, stride = [0], 1
                    width = len(visit)
                    # Slot v takes min_j(free pages of queue[j] * depth + j)
                    # pages before a filled block reaches its head.
                    take = total - count if visit else 0
                    rows = []
                    for v, (region, channel_id) in enumerate(visit[:take]):
                        queue = region.refresh_frontier(channel_id, self.vssd_id)
                        row = [b.gid for b in queue]
                        room = min(
                            ((ppb - wp_col[gid]) * len(row) + j for j, gid in enumerate(row)),
                            default=0,
                        )
                        take = min(take, room * width + v)
                        if take <= v:
                            break
                        rows.append(row)
                    if take <= 0:
                        break  # no slot, or the next one is exhausted
                    chunk = todo[count:count + take]
                    order = chunk.argsort(kind="stable")
                    ranked = chunk[order]
                    repeats = order[1:][ranked[1:] == ranked[:-1]]
                    if repeats.size:
                        take = int(repeats.min())
                        chunk = chunk[:take]
                    del rows[take:]
                    depths = np.array([len(row) for row in rows])
                    gids = np.array([gid for row in rows for gid in row])
                    turn, slot = np.divmod(np.arange(take), width)
                    lap, pick = np.divmod(turn, depths[slot])
                    pick += (np.cumsum(depths) - depths)[slot]
                    dest_gid = gids[pick]
                    dest_page = np.array([wp_col[gid] for gid in gids.tolist()])[pick] + lap
                    old_gid = m_gid[chunk]
                    had = old_gid >= 0
                    store.invalidate_pages(old_gid[had], m_page[chunk][had])
                    store.program_pages(dest_gid, dest_page, chunk)
                    m_gid[chunk] = dest_gid
                    m_page[chunk] = dest_page
                    length = max(length, int(chunk.max()) + 1)
                    self._mapped += take - int(had.sum())
                    for v, (region, channel_id) in enumerate(visit[:len(rows)]):
                        region._open[channel_id].rotate(-((take - v + width - 1) // width))
                    last = take - 1
                    self._write_rr = start + last // width * stride + offsets[last % width] + 1
                    count += take
            finally:
                l2p_gid[:] = gid_ints[m_gid[:length]].tolist()
                l2p_page[:] = m_page[:length].tolist()
            if count < total:
                # One page through the slow-path picker, which may GC (and
                # so rewrite any L2P entry) or raise for want of space.
                self._allocate_and_program(int(todo[count]))
                count += 1
        return count

    def trim_all(self) -> int:
        """Invalidate every mapped page (vSSD deallocation, Section 3.7)."""
        count = 0
        gids = self._l2p_gid
        pages = self._l2p_page
        views = self._store.blocks
        for lpn, gid in enumerate(gids):
            if gid < 0:
                continue
            views[gid].invalidate(pages[lpn])
            gids[lpn] = -1
            count += 1
        self._mapped = 0
        return count

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _allocate_and_program(self, lpn: int) -> None:
        """Place ``lpn`` on a frontier block through the slow-path picker
        (:meth:`warm_fill`'s one page between epochs)."""
        l2p_gid = self._l2p_gid
        if lpn >= len(l2p_gid):
            grow = lpn + 1 - len(l2p_gid)
            l2p_gid.extend([-1] * grow)
            self._l2p_page.extend([0] * grow)
        block = self._frontier_or_urgent_gc()
        # Read with the frontier in hand: urgent GC may move ``lpn``.
        old_gid = l2p_gid[lpn]
        old_page = self._l2p_page[lpn]
        page = block.program(lpn)
        l2p_gid[lpn] = block.gid
        self._l2p_page[lpn] = page
        if old_gid >= 0:
            self._store.blocks[old_gid].invalidate(old_page)
        else:
            self._mapped += 1

    def _frontier_or_urgent_gc(self) -> FlashBlock:
        """The next frontier block, after urgent GC if need be, or raise."""
        block = self._pick_frontier()
        if block is None and not self._in_gc:
            self._urgent_gc()
            block = self._pick_frontier()
        if block is None:
            raise OutOfSpaceError(f"vSSD {self.vssd_id}: no programmable block available")
        return block

    def _regions_version(self) -> int:
        version = self.own_region.version
        for region in self.harvest_regions:
            version += region.version + (1000003 if region.reclaiming else 0)
        return version

    def _rebuild_slots(self) -> None:
        slots = [
            (self.own_region, ch) for ch in self.own_region.writable_channels()
        ]
        for region in self.harvest_regions:
            if region.reclaiming:
                continue
            slots.extend((region, ch) for ch in region.writable_channels())
        self._slots = slots
        self._slots_version = self._regions_version()

    def _pick_frontier(self) -> Optional[FlashBlock]:
        """Round-robin over writable (region, channel) pairs, for host
        writes (GC copy-back picks its own destinations, :meth:`_relocate`).

        The slow-path picker: :meth:`write_span` inlines one turn of the
        round-robin below and comes here, through
        :meth:`_frontier_or_urgent_gc`, when that turn found no block.
        """
        # Each miss bumps the region version (the channel exhausted), so
        # the rebuild-and-retry loop strictly shrinks the slot list and
        # terminates; the guard bounds pathological cases.
        guard = 4 * self.config.num_channels + 8
        while guard > 0:
            guard -= 1
            if self._slots_version != self._regions_version():
                self._rebuild_slots()
            slots = self._slots
            if not slots:
                return None
            # Prefer the next round-robin channel that still has queue
            # headroom; loading a channel past its horizon would let one
            # tenant build unbounded backlog behind which collocated
            # readers stall.  If every channel is at its horizon, take the
            # least busy one so dispatches approved by the scheduler still
            # make progress.
            n = len(slots)
            start = self._write_rr
            choice = None
            # Channel.has_capacity() against the flat channel arrays:
            # max(0, busy - now) < bound reduces to busy - now < bound
            # because bound > 0.
            arrays = self._arrays
            bus_busy = arrays.bus_busy
            offline = arrays.offline
            now = self.ssd.sim.now
            bound = self._qd_bound_us
            idx = start % n
            for k in range(n):
                region, channel_id = slots[idx]
                idx += 1
                if idx == n:
                    idx = 0
                if not offline[channel_id] and bus_busy[channel_id] - now < bound:
                    choice = (region, channel_id, k)
                    break
            if choice is None:
                region, channel_id = min(
                    slots,
                    key=lambda slot: self.ssd.channels[slot[1]].busy_horizon_us(),
                )
                self._write_rr = start + 1
            else:
                region, channel_id, k = choice
                self._write_rr = start + k + 1
            block = region.frontier_block(channel_id, self.vssd_id)
            if block is not None:
                return block
        return None

    # ------------------------------------------------------------------
    # Garbage collection (Figure 9 semantics)
    # ------------------------------------------------------------------
    def _urgent_gc(self) -> None:
        """Out-of-space fallback: GC every channel we own."""
        for channel_id in list(self._own_blocks_per_channel):
            self.run_gc(channel_id, urgent=True)

    def run_gc(self, channel_id: int, urgent: bool = False) -> int:
        """Free up space in the own pool on ``channel_id``.

        Victim priority (Figure 9): harvested/reclaimed blocks (HBT = 1)
        first, then regular blocks with the fewest valid pages.  Valid
        data is rewritten into this vSSD's own blocks; the erased block
        is marked regular and returns to the own free pool.

        Returns the number of blocks erased.
        """
        self._in_gc = True
        erased = 0
        try:
            limit = self.GC_BATCH_BLOCKS * (2 if urgent else 1)
            while erased < limit:
                victim = self._select_own_victim(channel_id)
                if victim is None:
                    break
                erased += self._collect_block(victim, None)
                if not urgent and self.free_fraction(channel_id) >= self.gc_threshold:
                    break
            if erased:
                self.stats.gc_runs += 1
        finally:
            self._in_gc = False
            PROFILER.count("ftl.gc_blocks_erased", erased)
        return erased

    def recycle_region(self, region: WriteRegion, channel_id: int) -> int:
        """Recycle exhausted live-gSB blocks on ``channel_id``.

        For bandwidth-purpose regions, valid data is copied back to this
        vSSD's own blocks (Figure 9) so the harvested channel keeps
        providing write bandwidth.  For capacity-purpose regions the data
        must *stay* in the harvested space, so GC runs within the region:
        victims with invalid pages are compacted into the region's own
        frontier.
        """
        self._in_gc = True
        erased = 0
        try:
            # Column scan over the one channel's gid slice.  Membership
            # must come from the region itself: two harvest regions of the
            # same vSSD can share a channel, and writer/HBT flags alone
            # would let one region's GC erase the other's blocks and
            # re-add them to the wrong free pool.
            store = self._store
            vc_col = store.valid_count
            views = store.blocks
            in_region = region.purpose == "capacity"
            frontier = {block.gid for block in region._open.get(channel_id, ())}
            base = channel_id * self._blocks_per_channel
            victims = [
                gid
                for gid in range(base, base + self._blocks_per_channel)
                if store.writer[gid] == self.vssd_id
                and store.harvested[gid]
                and store.state[gid] is BlockState.FULL
                and gid not in frontier
                and not (in_region and vc_col[gid] >= store.pages_per_block)
                and region.contains(views[gid])
            ]
            victims.sort(key=vc_col.__getitem__)  # stable: ties keep gid order
            for gid in victims[: self.GC_BATCH_BLOCKS]:
                erased += self._collect_block(
                    views[gid], region, region if in_region else None
                )
            if erased:
                self.stats.gc_runs += 1
        finally:
            self._in_gc = False
            PROFILER.count("ftl.gc_blocks_erased", erased)
        return erased

    def _select_own_victim(self, channel_id: int) -> Optional[FlashBlock]:
        """Best own-pool victim: HBT-flagged first, then fewest valid.

        Column scan over the channel's contiguous gid slice (blocks are
        gid-dense per channel), once per collected block.  The
        ``(hbt, valid)`` tuple key is packed into one int — harvested
        keys occupy ``[0, ppb]``, regular keys ``[ppb + 1, 2 * ppb + 1]``
        — preserving the exact tuple order; the first gid with the least
        key wins.  Blocks are ranked before they are vetted (owner,
        writer, not an open frontier): most lose on the key alone.
        """
        store = self._store
        harvested_col = store.harvested
        vssd = self.vssd_id
        full = BlockState.FULL  # an enum member lookup costs ~10 list reads
        ppb = store.pages_per_block
        base = channel_id * self._blocks_per_channel
        end = base + self._blocks_per_channel
        frontier = {block.gid for block in self.own_region._open.get(channel_id, ())}
        best = -1
        best_key = 2 * ppb + 2  # above any packed key: first hit wins
        for gid, state, valid in zip(
            range(base, end), store.state[base:end], store.valid_count[base:end]
        ):
            if state is not full:
                continue
            if harvested_col[gid]:
                key = valid
            elif valid < ppb:
                key = ppb + 1 + valid
            else:
                continue
            if key >= best_key or gid in frontier or store.owner[gid] != vssd:
                continue
            writer = store.writer[gid]
            if writer is None or writer == vssd:
                best, best_key = gid, key
        return store.blocks[best] if best >= 0 else None

    def collect_blocks(self, blocks: list, region: WriteRegion) -> int:
        """Force-collect specific region blocks (lazy gSB reclamation).

        Unlike threshold GC this also takes OPEN blocks, so a half-written
        write frontier cannot stall a reclaim forever.
        """
        collected = 0
        for block in blocks:
            if block.is_free:
                continue
            if block.writer != self.vssd_id:
                raise ValueError(
                    f"block {block.block_id} written by {block.writer}, "
                    f"not by vSSD {self.vssd_id}"
                )
            collected += self._collect_block(block, region)
        return collected

    def _collect_block(
        self,
        victim: FlashBlock,
        region: Optional[WriteRegion],
        target_region: Optional[WriteRegion] = None,
    ) -> int:
        """Migrate valid pages out of ``victim``, erase it, route it.

        Valid data goes to this vSSD's own blocks (Figure 9) unless
        ``target_region`` pins it — capacity-region compaction stays
        inside its region.
        """
        valid = victim.valid_lpns()
        if target_region is not None and target_region.free_pages() < len(valid):
            # In-region compaction needs somewhere inside the region to
            # put the data; bail out rather than deadlock.
            return 0
        if valid:
            self._relocate(valid, target_region)
        channel = self.ssd.channels[victim.channel_id]
        channel.occupy_for_gc(victim.chip_id, migrate_reads=len(valid), erases=1)
        was_harvested = victim.harvested_flag
        victim.erase()
        self.hbt.mark_regular(victim)
        self.stats.blocks_erased += 1
        if region is not None and region.kind == "harvest":
            if not region.reclaiming:
                # Live gSB: keep the block harvestable for continued use.
                self.hbt.mark_harvested(victim)
            region.release_erased(victim)
        else:
            if was_harvested and victim.owner != self.vssd_id:
                raise RuntimeError("own-region GC erased a foreign block")
            self.own_region._discard_open(victim)
            self.own_region.add_block(victim)
        return 1

    def _relocate(self, valid: list, target_region: Optional[WriteRegion]) -> None:
        """Copy a victim's ``(page, lpn)`` pairs back in one fused pass.

        Per page: pick a destination, program it, remap the LPN,
        invalidate the old copy and charge the destination channel a
        background program — copy-back costs channel time like a host
        write, the interference the RL state's In_GC flag reports.
        ``FlashBlock.program`` / ``invalidate`` and ``Channel.service_write``
        are inlined against the columns as in :meth:`write_span`.

        Each page goes to the own channel that can still write with the
        least bus work queued, ``max(0, bus_busy - now)``, ties to the
        lowest id; a copy-back pushes its channel out by one GC transfer,
        so a batch spreads over the channels.  A ``target_region`` pins
        pages to its first writable channel in id order instead.  Nothing
        here moves the clock or adds blocks to a region, so one heap of
        ``(horizon, channel)`` per victim holds the candidates, and a
        channel whose frontier comes back empty leaves it.
        """
        store = self._store
        wp_col = store.write_ptr
        vc_col = store.valid_count
        lpns2d = store.page_lpns
        arrays = self._arrays
        bus_busy = arrays.bus_busy
        chip_busy = arrays.chip_busy
        l2p_gid = self._l2p_gid
        l2p_page = self._l2p_page
        ppb = store.pages_per_block
        full_state, open_state = BlockState.FULL, BlockState.OPEN
        now = self.ssd.sim.now
        own = target_region is None
        dest = self.own_region if target_region is None else target_region
        heap = [
            (max(0.0, bus_busy[channel_id] - now) if own else 0.0, channel_id)
            for channel_id in dest.writable_channels()
        ]
        heapify(heap)
        for _page, lpn in valid:
            while heap:
                channel_id = heap[0][1]
                block = dest.frontier_block(channel_id, self.vssd_id)
                if block is not None:
                    break
                heappop(heap)
            else:
                raise OutOfSpaceError(f"vSSD {self.vssd_id}: no programmable block available")
            gid = block.gid
            old_gid = l2p_gid[lpn]
            old_page = l2p_page[lpn]
            # -- FlashBlock.program, inlined ---------------------------
            page = wp_col[gid]
            if page >= ppb:
                raise RuntimeError(f"block {block.block_id} is full")
            lpns2d[gid, page] = lpn
            vc_col[gid] += 1
            wp_col[gid] = page + 1
            store.state[gid] = full_state if page + 1 == ppb else open_state
            l2p_gid[lpn] = gid
            l2p_page[lpn] = page
            if old_gid >= 0:
                # -- FlashBlock.invalidate, inlined --------------------
                if lpns2d[old_gid, old_page] == -1:
                    raise RuntimeError(
                        f"double invalidate of page {old_page} in block "
                        f"{store.blocks[old_gid].block_id}"
                    )
                lpns2d[old_gid, old_page] = -1
                vc_col[old_gid] -= 1
            else:
                self._mapped += 1
            # -- Channel.service_write(background=True), inlined -------
            xfer = arrays.eff_gc_xfer_us[channel_id]
            b = bus_busy[channel_id]
            xfer_done = (now if now > b else b) + xfer
            bus_busy[channel_id] = xfer_done
            ci = channel_id * arrays.chips_per_channel + block.chip_id
            write_us = arrays.eff_write_us[channel_id]
            extra = arrays.extra_latency_us[channel_id]
            ps = chip_busy[ci]
            chip_busy[ci] = (xfer_done if xfer_done > ps else ps) + write_us + extra
            chan_stats = self._chan_stats[channel_id]
            chan_stats.pages_written += 1
            chan_stats.busy_us += write_us + xfer + extra
            self.stats.gc_reads += 1
            self.stats.gc_writes += 1
            if own:
                heapreplace(heap, (max(0.0, xfer_done - now), channel_id))
