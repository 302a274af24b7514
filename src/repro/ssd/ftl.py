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
harvested/reclaimed blocks (HBT bit = 1: ``BlockStore.gsb_of >= 0``);
their valid data is copied back to the harvesting vSSD's *own* blocks.
Blocks of a *live* gSB are recycled back into the gSB so a harvested
channel keeps providing write bandwidth, while blocks of a *reclaiming*
gSB are handed back to their home vSSD, leaving the HBT as they go.

The write path is on the simulator's critical path, so a written page
costs its placement and nothing more.  The FTL caches its striping slots
with what the page loop reads per slot and per channel — the slot
channels, the open-queue references, the own and harvest FREE queues and
the GC trigger's per-channel bound — keyed on the regions version and
``gc_threshold`` (:meth:`VssdFtl._rebuild_slots`).  Within a span the
round-robin stops scanning once no slot is eligible, and the least-busy
fallback is a lazy heap (:meth:`VssdFtl.write_span`); the page matrix is
indexed through its memoryview, and :class:`repro.ssd.region.WriteRegion`
is O(1) per page.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.config import SSDConfig
from repro.profiling import PROFILER
from repro.ssd.blockstate import BlockState
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


def _gc_free_bound(owned: int, threshold: float) -> float:
    """The fewest FREE blocks of ``owned`` at which ``free / owned <
    threshold`` is false: the GC trigger fires exactly below it.  0 when
    nothing is owned or nothing triggers; infinite when everything does."""
    if owned <= 0 or not threshold > 0.0:
        return 0
    if threshold == math.inf:
        return math.inf
    free = int(threshold * owned)
    while free and not (free - 1) / owned < threshold:
        free -= 1
    while free / owned < threshold:
        free += 1
    return free


class VssdFtl:
    """Flash translation layer for one vSSD."""

    #: Max victims reclaimed per GC invocation, bounding GC stall length.
    GC_BATCH_BLOCKS = 2

    def __init__(self, vssd_id: int, ssd: "Ssd") -> None:
        self.vssd_id = vssd_id
        self.ssd = ssd
        self.config: SSDConfig = ssd.config
        # The GC trigger; the ``gc_storm`` fault rewrites it.
        self.gc_threshold: float = self.config.gc_free_block_threshold
        # L2P mapping as parallel lists indexed by LPN (grown on demand).
        # Physical locations are block gids into the device's BlockStore
        # (``_l2p_gid[lpn] < 0`` marks an unmapped LPN).
        self._l2p_gid: list = []
        self._l2p_page: list = []
        self._mapped = 0
        # Hoisted structure-of-arrays references (stable for the device's
        # lifetime; all mutated in place, never rebound).
        self._store = ssd.store
        self._arrays = ssd.arrays
        self._blocks_per_channel = self._store.blocks_per_channel
        # The page matrix's 2-D memoryview: the same buffer (restores copy
        # into it), a Python int per element access, no numpy scalar.
        self._page_lpns = self._store.page_lpns.data
        # Sorted own-region channel list for unmapped reads, keyed by the
        # region version (sorted() per unmapped read was measurable).
        self._unmapped_channels: list = []
        self._unmapped_version = -1
        self.own_region = WriteRegion(
            f"own:{vssd_id}", self._store,
            max_open_per_channel=self.config.chips_per_channel,
            wear_aware=self.config.wear_aware_allocation,
        )
        self.harvest_regions: list = []
        self.stats = FtlStats()
        self._write_rr = 0
        self._unmapped_rr = 0
        self._own_blocks_per_channel: dict = {}
        self._in_gc = False
        # Cached striping order, a list of (region, channel_id), and the
        # per-slot and per-channel caches the write path reads with it
        # (see _rebuild_slots), keyed by the regions version and
        # gc_threshold.
        self._slots: list = []
        self._slot_channel: list = []
        self._slot_open: list = []
        self._slot_max_open: list = []
        self._gc_bound: list = []
        self._gc_free_queue: list = []
        self._recycle_queues: list = []
        self._live_regions: Optional[list] = None
        self._slots_version = -1
        self._gc_threshold_key: Optional[float] = None
        # channel_count(), kept current by _invalidate_slots (the
        # dispatcher reads it per admission check).
        self._chan_count = 1
        # Queue-depth busy-horizon bound, hoisted off the per-page frontier
        # scan (the SSD config is fixed for the device's lifetime).
        self._qd_bound_us = self.config.max_queue_depth * self.config.bus_transfer_us

    # ------------------------------------------------------------------
    # Block population
    # ------------------------------------------------------------------
    def adopt_blocks(self, gids: Iterable[int]) -> None:
        """Add owned FREE blocks to the own region (initial allocation or
        blocks returned from a reclaimed gSB)."""
        gids = list(gids)
        owner = self._store.owner
        bpc = self._blocks_per_channel
        per_channel = self._own_blocks_per_channel
        for gid in gids:
            if owner[gid] != self.vssd_id:
                raise ValueError(
                    f"block {self._store.locate(gid)} owned by {owner[gid]}, "
                    f"not {self.vssd_id}"
                )
            channel_id = gid // bpc
            per_channel[channel_id] = per_channel.get(channel_id, 0) + 1
        self.own_region.add_blocks(gids)
        self._invalidate_slots()

    def surrender_free_blocks(self, channel_id: int, count: int) -> list:
        """Give up FREE owned blocks on ``channel_id`` (gSB creation).

        Returns the surrendered gids; the caller transfers ownership.
        """
        taken = self.own_region.take_free_blocks(channel_id, count)
        if taken:
            per_channel = self._own_blocks_per_channel
            per_channel[channel_id] = per_channel.get(channel_id, 0) - len(taken)
            self._invalidate_slots()
        return taken

    def add_harvest_region(self, region: WriteRegion) -> None:
        """Attach a harvested gSB's blocks as a writable region."""
        if region.gsb_id < 0:
            raise ValueError("add_harvest_region requires a harvest region")
        self.harvest_regions.append(region)
        self._invalidate_slots()

    def remove_harvest_region(self, region: WriteRegion) -> None:
        """Detach a harvest region (after its gSB is reclaimed)."""
        self.harvest_regions.remove(region)
        self._invalidate_slots()

    def start_reclaim(self, region: WriteRegion) -> None:
        """Flip an attached harvest region to reclaiming (lazy gSB
        reclaim): it takes no more host writes, stops counting toward
        :meth:`channel_count`, and queues its erased blocks for
        ``take_released``."""
        region.reclaiming = True
        self._invalidate_slots()

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
        """Channels this vSSD currently touches (own + live harvested),
        at least 1.

        A region's channel set only grows through ``adopt_blocks`` or
        before it is attached, so the count can change only where
        :meth:`_invalidate_slots` runs, which recounts it.
        """
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

        Only supported before any gSB traffic: a harvest region belongs to
        a gSB, and the gSB manager's state (its pool and the gSB records)
        is not part of this snapshot.  The warm-state cache only
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
        self.own_region.restore(snapshot["own_region"])
        self._in_gc = False
        self._invalidate_slots()
        self._unmapped_version = -1

    # ------------------------------------------------------------------
    # Host I/O: the fused spans are the only way a host page reaches flash
    # ------------------------------------------------------------------
    def write_span(self, lpn: int, num_pages: int, front: bool = False) -> float:
        """Write ``num_pages`` consecutive logical pages in one fused pass.

        Returns the completion time of the slowest page (us).  ``front``
        requests priority bus arbitration (Set_Priority HIGH).

        Per page: pick a striping slot, program its frontier block, remap
        the LPN and invalidate its previous copy, charge the channel a page
        program, check the GC trigger.  Every step is inlined against the
        structure-of-arrays columns — ``WriteRegion.frontier_block``'s
        steady state, ``BlockStore.program`` / ``invalidate`` (the page
        matrix through its memoryview), ``Channel.service_write`` — so a
        page costs its placement and nothing more.  A frontier refill
        calls ``frontier_block``; an exhausted channel, urgent GC and
        :class:`OutOfSpaceError` belong to :meth:`_frontier_or_urgent_gc`.

        The pick is :meth:`_pick_frontier`'s rule, kept span-scoped.  The
        clock is fixed within a span and bus horizons only grow, so a slot
        that stops being eligible (offline, or its channel holding
        ``max_queue_depth`` transfers of bus work) stays so.  The slot in
        turn is tested directly and, when it fails, the turn scans on to
        the next eligible one.  A turn that finds none marks the span
        exhausted: from then on every page takes the least busy slot from a
        lazily refreshed heap of ``(clamped horizon, slot index)``
        (:meth:`_fallback_heap`), with no scan.  A GC or a slow-path pick
        may move any horizon, queue or slot, so the page after one derives
        this state afresh.

        GC trigger, after every page unless a collection is already
        running: if this vSSD owns blocks on the page's channel and fewer
        than ``gc_threshold`` of them are FREE, :meth:`run_gc` there.
        Otherwise (a harvested channel, or an own one not below threshold)
        the first live harvest region on that channel with no FREE block
        left is recycled, so the harvested channel keeps taking writes.
        The test is one comparison against a cached per-channel count
        (``_gc_bound``, see :meth:`_rebuild_slots`), and a channel whose
        test held is not tested again until a frontier refill on it takes
        a FREE block: nothing else between collections changes the counts.

        Held to the per-page twin in ``tests/ssd/span_oracle.py`` by
        ``tests/ssd/test_span_differential.py``.
        """
        store = self._store
        arrays = self._arrays
        state_col = store.state
        wp_col = store.write_ptr
        vc_col = store.valid_count
        lpns2d = self._page_lpns
        bus_busy = arrays.bus_busy
        chip_busy = arrays.chip_busy
        offline = arrays.offline
        eff_write = arrays.eff_write_us
        eff_xfer = arrays.eff_xfer_us
        extra_lat = arrays.extra_latency_us
        bpc = store.blocks_per_channel
        bpchip = store.blocks_per_chip
        ppb = self.config.pages_per_block
        full_state = BlockState.FULL
        open_state = BlockState.OPEN
        # sim.now is constant for the whole span: nothing here fires
        # events, and schedule() never advances the clock.
        now = self.ssd.sim.now
        bound = self._qd_bound_us
        # GC restores the flag before it returns, so it holds all span.
        in_gc = self._in_gc
        vssd = self.vssd_id
        l2p_gid = self._l2p_gid
        l2p_page = self._l2p_page
        end = lpn + num_pages
        if end > len(l2p_gid):
            grow = end - len(l2p_gid)
            l2p_gid.extend([-1] * grow)
            l2p_page.extend([0] * grow)
        done = now
        placed = lpn - 1  # the last page charged to its channel
        mapped = 0
        rr = self._write_rr
        rr_live = True  # False while the slow path owns ``_write_rr``
        stale = True
        try:
            for cur in range(lpn, end):
                if stale:
                    # -- the span's picker state (docstring) -----------
                    slots = self._refresh_slots()
                    n = len(slots)
                    slot_channel = self._slot_channel
                    slot_open = self._slot_open
                    slot_max_open = self._slot_max_open
                    gc_bound = self._gc_bound
                    gc_free = self._gc_free_queue
                    recycle_queues = self._recycle_queues
                    # Set by the first turn that finds no slot eligible:
                    # none can become so again within the epoch.
                    exhausted = False
                    heap = None
                    # A channel whose GC trigger was tested and held stays
                    # quiet until a frontier refill takes one of its FREE
                    # blocks; GC and the slow path end the epoch.
                    quiet = [in_gc] * len(gc_bound)
                    stale = False
                if n:
                    # -- one round-robin turn (docstring) --------------
                    i = pos = rr % n
                    channel_id = slot_channel[i]
                    if not offline[channel_id] and bus_busy[channel_id] - now < bound:
                        rr += 1
                    else:
                        if not exhausted:
                            for k in range(1, n):
                                i = pos + k
                                if i >= n:
                                    i -= n
                                channel_id = slot_channel[i]
                                if not offline[channel_id] and bus_busy[channel_id] - now < bound:
                                    rr += k + 1
                                    break
                            else:
                                exhausted = True
                        if exhausted:
                            if heap is None:
                                heap = self._fallback_heap(now)
                            while True:
                                key, i = heap[0]
                                horizon = bus_busy[slot_channel[i]] - now
                                if horizon <= key:
                                    break
                                heapreplace(heap, (horizon, i))
                            channel_id = slot_channel[i]
                            rr += 1
                    # -- frontier_block steady state, inlined ----------
                    # (a head block is FULL exactly when its write
                    # pointer is at the end)
                    queue = slot_open[i]
                    if (
                        len(queue) >= slot_max_open[i]
                        and (page := wp_col[(gid := queue[0])]) < ppb
                    ):
                        queue.rotate(-1)
                    else:
                        region = slots[i][0]
                        quiet[channel_id] = False  # a refill may open a FREE block
                        gid = region.frontier_block(channel_id, vssd)
                        if gid is not None:
                            slot_open[i] = region._open[channel_id]
                            page = wp_col[gid]
                            if page >= ppb:
                                raise RuntimeError(f"block {store.locate(gid)} is full")
                else:
                    gid = None
                if gid is None:
                    # Channel exhausted or no slots: the full picking
                    # loop, then urgent GC, then out of space.
                    self._write_rr = rr
                    rr_live = False
                    gid = self._frontier_or_urgent_gc()
                    rr = self._write_rr
                    rr_live = True
                    stale = True
                    channel_id = gid // bpc
                    page = wp_col[gid]
                    if page >= ppb:
                        raise RuntimeError(f"block {store.locate(gid)} is full")
                    self._refresh_slots()
                    gc_bound = self._gc_bound
                    gc_free = self._gc_free_queue
                    recycle_queues = self._recycle_queues
                    quiet = [in_gc] * len(gc_bound)
                # Read with the frontier in hand: urgent GC may move ``cur``.
                old_gid = l2p_gid[cur]
                old_page = l2p_page[cur]
                # -- BlockStore.program, inlined -----------------------
                lpns2d[gid, page] = cur
                vc_col[gid] += 1
                nxt = page + 1
                wp_col[gid] = nxt
                state_col[gid] = full_state if nxt == ppb else open_state
                l2p_gid[cur] = gid
                l2p_page[cur] = page
                if old_gid >= 0:
                    # -- BlockStore.invalidate, inlined ----------------
                    if lpns2d[old_gid, old_page] == -1:
                        raise RuntimeError(
                            f"double invalidate of page {old_page} in block "
                            f"{store.locate(old_gid)}"
                        )
                    lpns2d[old_gid, old_page] = -1
                    vc_col[old_gid] -= 1
                else:
                    mapped += 1
                # -- Channel.service_write, inlined --------------------
                b = bus_busy[channel_id]
                if front:
                    xfer = eff_xfer[channel_id]
                    nx = now + xfer
                    bus_available = b if b < nx else nx
                    m = now if now > bus_available else bus_available
                    xfer_done = m + xfer
                    bus_busy[channel_id] = (b if b > now else now) + xfer
                else:
                    xfer_done = (now if now > b else b) + eff_xfer[channel_id]
                    bus_busy[channel_id] = xfer_done
                ci = gid // bpchip
                ps = chip_busy[ci]
                if xfer_done > ps:
                    ps = xfer_done
                fin = ps + eff_write[channel_id] + extra_lat[channel_id]
                chip_busy[ci] = fin
                if fin > done:
                    done = fin
                placed = cur
                # -- GC trigger (policy in the docstring) --------------
                if not quiet[channel_id]:
                    free_bound = gc_bound[channel_id]
                    if free_bound and len(gc_free[channel_id]) < free_bound:
                        self.run_gc(channel_id)
                        stale = True
                        continue
                    for hregion, free_queue in recycle_queues[channel_id]:
                        if not free_queue:
                            self.recycle_region(hregion, channel_id)
                            stale = True
                            break
                    else:
                        quiet[channel_id] = True
        finally:
            # The counters are read only at window boundaries, so one
            # exact integer add per span replaces one per page; the
            # finally keeps the pages a span placed before it ran out of
            # space counted.
            if rr_live:
                self._write_rr = rr
            if placed >= lpn:
                self.stats.host_writes += placed - lpn + 1
            if mapped:
                self._mapped += mapped
        return done

    def read_span(self, lpn: int, num_pages: int, front: bool = False) -> float:
        """Read ``num_pages`` consecutive logical pages in one fused pass.

        Returns the completion time of the slowest page (us).  A mapped
        page is read where it lives, own or harvested channel
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
        bpc = store.blocks_per_channel
        bpchip = store.blocks_per_chip
        bus_busy = arrays.bus_busy
        chip_busy = arrays.chip_busy
        eff_read = arrays.eff_read_us
        eff_xfer = arrays.eff_xfer_us
        extra_lat = arrays.extra_latency_us
        chips = self.config.chips_per_channel
        now = self.ssd.sim.now
        channels = self.ssd.channels
        l2p_gid = self._l2p_gid
        length = len(l2p_gid)
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
                    ci = channel_id * chips + chip_id
                    use_front = False
                    unmapped += 1
                else:
                    channel_id = gid // bpc
                    ci = gid // bpchip
                    use_front = front
                # -- Channel.service_read, inlined ---------------------
                read_us = eff_read[channel_id]
                xfer = eff_xfer[channel_id]
                extra = extra_lat[channel_id]
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
                host_reads += 1
                if fin > done:
                    done = fin
        finally:
            if host_reads:
                self.stats.host_reads += host_reads
            if unmapped:
                self.stats.unmapped_reads += unmapped
        return done

    def _own_channels_sorted(self) -> list:
        """Sorted own-region channels, cached by region version."""
        own = self.own_region
        if self._unmapped_version != own.version:
            self._unmapped_channels = sorted(own._channels)
            self._unmapped_version = own.version
        return self._unmapped_channels

    def page_location(self, lpn: int) -> Optional[tuple]:
        """``(gid, page)`` where ``lpn`` lives, or None if never written."""
        l2p = self._l2p_gid
        if lpn >= len(l2p) or lpn < 0:
            return None
        gid = l2p[lpn]
        if gid < 0:
            return None
        return gid, self._l2p_page[lpn]

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
        through a table of one ``gid`` int per block: every entry of a
        block shares one int object, as :meth:`write_span` stores its
        region's, not a fresh one per LPN for each snapshot copy to keep
        alive.
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
        ppb = self.config.pages_per_block
        now = self.ssd.sim.now
        l2p_gid = self._l2p_gid
        l2p_page = self._l2p_page
        # Indexed by gid; -1 (unmapped) wraps round to the trailing -1.
        gid_ints = np.array([*range(store.n_blocks), -1], dtype=object)
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
                    slots = self._refresh_slots()
                    n = len(slots)
                    start = self._write_rr
                    pos = start % n if n else 0
                    # Eligible slots in round-robin order from ``start``.
                    offsets = sorted((i - pos) % n for i in self._eligible_slots(now))
                    visit = [slots[(pos + k) % n] for k in offsets]
                    stride = n
                    if slots and not visit:
                        visit = [slots[self._fallback_heap(now)[0][1]]]
                        offsets, stride = [0], 1
                    width = len(visit)
                    # Slot v takes min_j(free pages of queue[j] * depth + j)
                    # pages before a filled block reaches its head.
                    take = total - count if visit else 0
                    rows = []
                    for v, (region, channel_id) in enumerate(visit[:take]):
                        row = list(region.refresh_frontier(channel_id, self.vssd_id))
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
        store = self._store
        for lpn, gid in enumerate(gids):
            if gid < 0:
                continue
            store.invalidate(gid, pages[lpn])
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
        gid = self._frontier_or_urgent_gc()
        # Read with the frontier in hand: urgent GC may move ``lpn``.
        old_gid = l2p_gid[lpn]
        old_page = self._l2p_page[lpn]
        page = self._store.program(gid, lpn)
        l2p_gid[lpn] = gid
        self._l2p_page[lpn] = page
        if old_gid >= 0:
            self._store.invalidate(old_gid, old_page)
        else:
            self._mapped += 1

    def _frontier_or_urgent_gc(self) -> int:
        """The next frontier block's gid, after urgent GC if need be, or
        raise."""
        gid = self._pick_frontier()
        if gid is None and not self._in_gc:
            self._urgent_gc()
            gid = self._pick_frontier()
        if gid is None:
            raise OutOfSpaceError(f"vSSD {self.vssd_id}: no programmable block available")
        return gid

    def _regions_version(self) -> int:
        # A reclaim flip needs no term here: start_reclaim invalidates.
        version = self.own_region.version
        for region in self.harvest_regions:
            version += region.version
        return version

    def _refresh_slots(self) -> list:
        """The striping slots, with every cache of :meth:`_rebuild_slots`
        current for the regions version and ``gc_threshold``."""
        if (
            self._slots_version != self._regions_version()
            or self._gc_threshold_key != self.gc_threshold
        ):
            self._rebuild_slots()
        return self._slots

    def _invalidate_slots(self) -> None:
        """Make the next :meth:`_refresh_slots` rebuild every cache: the
        regions, their queue objects, the owned block counts or a region's
        reclaim flag changed.  Recounts :meth:`channel_count` now."""
        self._slots_version = -1
        self._live_regions = None
        count = len(self.own_region._channels)
        for region in self.harvest_regions:
            if not region.reclaiming:
                count += len(region._channels)
        self._chan_count = max(count, 1)

    def _rebuild_slots(self) -> None:
        """Rebuild the striping order and the caches the write path reads.

        Per slot (a writable ``(region, channel)``, own region first):
        its channel, its region's open queue for that channel and that
        region's open-block count.  Per channel: the own region's FREE
        queue, the GC trigger's bound and the live harvest
        regions' FREE queues, in ``harvest_regions`` order, for recycling.
        ``_gc_bound[ch]`` is the fewest FREE blocks that does not trigger
        GC, from the exact ``free / owned < gc_threshold`` test; 0 where
        this vSSD owns no block.  An open queue a region has not made yet
        is filled in by the first write that makes it.

        Most version bumps are a GC victim erased back into its pool: the
        slots and the live regions come out the same, and so does every
        cache (queue objects and owned counts change only through
        :meth:`_invalidate_slots`), so only the version key moves.
        """
        own = self.own_region
        live = [own] + [region for region in self.harvest_regions if not region.reclaiming]
        slots = [(region, ch) for region in live for ch in region.writable_channels()]
        threshold = self.gc_threshold
        if (
            slots == self._slots
            and live == self._live_regions
            and threshold == self._gc_threshold_key
        ):
            self._slots_version = self._regions_version()
            return
        self._slots = slots
        self._live_regions = live
        self._slot_channel = [ch for _region, ch in slots]
        self._slot_open = [region._open.get(ch, ()) for region, ch in slots]
        # At least 1, so a queue that long is never empty.
        self._slot_max_open = [max(region.max_open_per_channel, 1) for region, _ch in slots]
        channels = range(self.config.num_channels)
        owned = self._own_blocks_per_channel
        self._gc_bound = [_gc_free_bound(owned.get(ch, 0), threshold) for ch in channels]
        self._gc_free_queue = [own._free.get(ch, ()) for ch in channels]
        self._recycle_queues = [
            tuple(
                (region, region._free.get(ch, ()))
                for region in live[1:] if ch in region._channels
            )
            for ch in channels
        ]
        self._slots_version = self._regions_version()
        self._gc_threshold_key = threshold

    def _eligible_slots(self, now: float) -> list:
        """Ascending indices of the slots whose channel is online and has
        headroom: ``Channel.has_capacity`` against the flat arrays, where
        ``max(0, busy - now) < bound`` reduces to ``busy - now < bound``
        because the bound is positive."""
        offline = self._arrays.offline
        bus_busy = self._arrays.bus_busy
        bound = self._qd_bound_us
        return [
            i for i, ch in enumerate(self._slot_channel)
            if not offline[ch] and bus_busy[ch] - now < bound
        ]

    def _fallback_heap(self, now: float) -> list:
        """The least-busy rule, as a heap of ``(max(0, bus_busy - now),
        slot index)``: its head is the slot with the least bus work queued,
        ties to the lowest index.  An offline channel accepts no new
        dispatch, so its slots are candidates only when no slot is online.
        """
        offline = self._arrays.offline
        bus_busy = self._arrays.bus_busy
        slot_channel = self._slot_channel
        online = [i for i, ch in enumerate(slot_channel) if not offline[ch]]
        heap = [
            (max(0.0, bus_busy[slot_channel[i]] - now), i)
            for i in online or range(len(slot_channel))
        ]
        heapify(heap)
        return heap

    def _pick_frontier(self) -> Optional[int]:
        """Round-robin over writable (region, channel) pairs, for host
        writes (GC copy-back picks its own destinations, :meth:`_relocate`).

        The slow-path picker: :meth:`write_span` runs the same turn
        inline and comes here, through :meth:`_frontier_or_urgent_gc`,
        when its turn found no block.  A turn takes the next slot in
        round-robin order from ``_write_rr`` that still has queue headroom
        (:meth:`_eligible_slots`); loading a channel past its horizon would
        let one tenant build unbounded backlog behind which collocated
        readers stall.  With none, it takes the least busy slot
        (:meth:`_fallback_heap`) so dispatches approved by the scheduler
        still make progress.
        """
        # Each miss bumps the region version (the channel exhausted), so
        # the rebuild-and-retry loop strictly shrinks the slot list and
        # terminates; the guard bounds pathological cases.
        guard = 4 * self.config.num_channels + 8
        while guard > 0:
            guard -= 1
            slots = self._refresh_slots()
            if not slots:
                return None
            n = len(slots)
            now = self.ssd.sim.now
            start = self._write_rr
            pos = start % n
            eligible = self._eligible_slots(now)
            if eligible:
                i = next((j for j in eligible if j >= pos), eligible[0])
                self._write_rr = start + (i - pos) % n + 1
            else:
                i = self._fallback_heap(now)[0][1]
                self._write_rr = start + 1
            region, channel_id = slots[i]
            gid = region.frontier_block(channel_id, self.vssd_id)
            if gid is not None:
                return gid
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
        returns to the own free pool.

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
            # is the block's gSB id, not just its HBT bit: two harvest
            # regions of the same vSSD can share a channel, and one
            # region's GC must not erase the other's blocks and re-add
            # them to the wrong free pool.
            store = self._store
            vc_col = store.valid_count
            gsb_id = region.gsb_id
            in_region = region.purpose == "capacity"
            frontier = set(region._open.get(channel_id, ()))
            base = channel_id * self._blocks_per_channel
            victims = [
                gid
                for gid in range(base, base + self._blocks_per_channel)
                if store.writer[gid] == self.vssd_id
                and store.gsb_of[gid] == gsb_id
                and store.state[gid] is BlockState.FULL
                and gid not in frontier
                and not (in_region and vc_col[gid] >= store.pages_per_block)
            ]
            victims.sort(key=vc_col.__getitem__)  # stable: ties keep gid order
            for gid in victims[: self.GC_BATCH_BLOCKS]:
                erased += self._collect_block(
                    gid, region, region if in_region else None
                )
            if erased:
                self.stats.gc_runs += 1
        finally:
            self._in_gc = False
            PROFILER.count("ftl.gc_blocks_erased", erased)
        return erased

    def _select_own_victim(self, channel_id: int) -> Optional[int]:
        """Gid of the best own-pool victim: HBT-flagged first, then fewest
        valid.

        Column scan over the channel's contiguous gid slice (blocks are
        gid-dense per channel), once per collected block.  The
        ``(hbt, valid)`` tuple key is packed into one int — harvested
        keys occupy ``[0, ppb]``, regular keys ``[ppb + 1, 2 * ppb + 1]``
        — preserving the exact tuple order; the first gid with the least
        key wins.  Blocks are ranked before they are vetted (owner,
        writer, not an open frontier): most lose on the key alone.
        """
        store = self._store
        gsb_col = store.gsb_of
        vssd = self.vssd_id
        full = BlockState.FULL  # an enum member lookup costs ~10 list reads
        ppb = store.pages_per_block
        base = channel_id * self._blocks_per_channel
        end = base + self._blocks_per_channel
        frontier = set(self.own_region._open.get(channel_id, ()))
        best = -1
        best_key = 2 * ppb + 2  # above any packed key: first hit wins
        for gid, state, valid in zip(
            range(base, end), store.state[base:end], store.valid_count[base:end]
        ):
            if state is not full:
                continue
            # Looked up for FULL blocks only: cheaper than zipping a
            # fourth slice through every block of the channel.
            if gsb_col[gid] >= 0:
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
        return best if best >= 0 else None

    def collect_blocks(self, gids: list, region: WriteRegion) -> int:
        """Force-collect specific region blocks (lazy gSB reclamation).

        Unlike threshold GC this also takes OPEN blocks, so a half-written
        write frontier cannot stall a reclaim forever.
        """
        store = self._store
        collected = 0
        for gid in gids:
            if store.state[gid] is BlockState.FREE:
                continue
            if store.writer[gid] != self.vssd_id:
                raise ValueError(
                    f"block {store.locate(gid)} written by {store.writer[gid]}, "
                    f"not by vSSD {self.vssd_id}"
                )
            collected += self._collect_block(gid, region)
        return collected

    def _collect_block(
        self,
        victim: int,
        region: Optional[WriteRegion],
        target_region: Optional[WriteRegion] = None,
    ) -> int:
        """Migrate valid pages out of block ``victim``, erase it, route it.

        Valid data goes to this vSSD's own blocks (Figure 9) unless
        ``target_region`` pins it — capacity-region compaction stays
        inside its region.
        """
        store = self._store
        harvest = region is not None and region.gsb_id >= 0
        if not harvest and store.gsb_of[victim] >= 0 and store.owner[victim] != self.vssd_id:
            raise RuntimeError("own-region GC would erase a foreign block")
        valid = store.valid_lpns(victim)
        if target_region is not None and target_region.free_pages() < len(valid):
            # In-region compaction needs somewhere inside the region to
            # put the data; bail out rather than deadlock.
            return 0
        if valid:
            self._relocate(valid, target_region)
        channel_id, chip_id, _index = store.locate(victim)
        self.ssd.channels[channel_id].occupy_for_gc(
            chip_id, migrate_reads=len(valid), erases=1
        )
        store.erase(victim)  # the block stays in its gSB, if any
        self.stats.blocks_erased += 1
        if harvest:
            region.release_erased(victim)
        else:
            self.own_region._discard_open(victim)
            self.own_region.add_block(victim)
        return 1

    def _relocate(self, valid: list, target_region: Optional[WriteRegion]) -> None:
        """Copy a victim's ``(page, lpn)`` pairs back in one fused pass.

        Per page: pick a destination, program it, remap the LPN,
        invalidate the old copy and charge the destination channel a
        background program — copy-back costs channel time like a host
        write, the interference the RL state's In_GC flag reports.
        ``WriteRegion.frontier_block``'s steady state, ``BlockStore.program``
        / ``invalidate`` and ``Channel.service_write`` are inlined against
        the columns as in :meth:`write_span`, and the GC counters are added
        once per victim.

        Each page goes to the own channel that can still write with the
        least bus work queued, ``max(0, bus_busy - now)``, ties to the
        lowest id; a copy-back pushes its channel out by one GC transfer,
        so a batch spreads over the channels.  A ``target_region`` pins
        pages to its first writable channel in id order instead.  Either
        way an offline channel comes after every online one: it takes
        copy-backs only once no online channel can.  Nothing here moves
        the clock or adds blocks to a region, so one heap of ``(offline,
        horizon, channel)`` per victim holds the candidates, and a channel
        whose frontier comes back empty leaves it.
        """
        store = self._store
        state_col = store.state
        wp_col = store.write_ptr
        vc_col = store.valid_count
        lpns2d = self._page_lpns
        arrays = self._arrays
        bus_busy = arrays.bus_busy
        chip_busy = arrays.chip_busy
        eff_gc_xfer = arrays.eff_gc_xfer_us
        eff_write = arrays.eff_write_us
        extra_lat = arrays.extra_latency_us
        offline = arrays.offline
        l2p_gid = self._l2p_gid
        l2p_page = self._l2p_page
        ppb = store.pages_per_block
        bpchip = store.blocks_per_chip
        full_state, open_state = BlockState.FULL, BlockState.OPEN
        now = self.ssd.sim.now
        vssd = self.vssd_id
        own = target_region is None
        dest = self.own_region if target_region is None else target_region
        open_queues = dest._open
        max_open = dest.max_open_per_channel
        heap = [
            (
                offline[channel_id],
                max(0.0, bus_busy[channel_id] - now) if own else 0.0,
                channel_id,
            )
            for channel_id in dest.writable_channels()
        ]
        heapify(heap)
        copied = 0
        try:
            for _page, lpn in valid:
                while heap:
                    channel_id = heap[0][2]
                    # -- frontier_block steady state, inlined (a head
                    # block is FULL exactly when its write pointer is at
                    # the end) ------------------------------------------
                    queue = open_queues.get(channel_id)
                    if (
                        queue
                        and len(queue) >= max_open
                        and (page := wp_col[(gid := queue[0])]) < ppb
                    ):
                        queue.rotate(-1)
                        break
                    gid = dest.frontier_block(channel_id, vssd)
                    if gid is not None:
                        page = wp_col[gid]
                        if page >= ppb:
                            raise RuntimeError(f"block {store.locate(gid)} is full")
                        break
                    heappop(heap)
                else:
                    raise OutOfSpaceError(f"vSSD {vssd}: no programmable block available")
                old_gid = l2p_gid[lpn]
                old_page = l2p_page[lpn]
                # -- BlockStore.program, inlined -----------------------
                lpns2d[gid, page] = lpn
                vc_col[gid] += 1
                wp_col[gid] = page + 1
                state_col[gid] = full_state if page + 1 == ppb else open_state
                l2p_gid[lpn] = gid
                l2p_page[lpn] = page
                if old_gid >= 0:
                    # -- BlockStore.invalidate, inlined ----------------
                    if lpns2d[old_gid, old_page] == -1:
                        raise RuntimeError(
                            f"double invalidate of page {old_page} in block "
                            f"{store.locate(old_gid)}"
                        )
                    lpns2d[old_gid, old_page] = -1
                    vc_col[old_gid] -= 1
                else:
                    self._mapped += 1
                # -- Channel.service_write(background=True), inlined ---
                b = bus_busy[channel_id]
                xfer_done = (now if now > b else b) + eff_gc_xfer[channel_id]
                bus_busy[channel_id] = xfer_done
                ci = gid // bpchip
                ps = chip_busy[ci]
                chip_busy[ci] = (
                    (xfer_done if xfer_done > ps else ps)
                    + eff_write[channel_id] + extra_lat[channel_id]
                )
                copied += 1
                if own:
                    # xfer_done >= now: the new horizon needs no clamp.
                    heapreplace(heap, (heap[0][0], xfer_done - now, channel_id))
        finally:
            if copied:
                self.stats.gc_reads += copied
                self.stats.gc_writes += copied
