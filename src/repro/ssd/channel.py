"""Channel timing model: a shared bus feeding parallel flash chips.

Each channel owns ``chips_per_channel`` chips and one command/data bus.
Page operations pipeline across the two resources:

* **read** — the chip senses the page (``page_read_us``), then the bus
  transfers it out (``bus_transfer_us``).
* **write** — the bus transfers data in, then the chip programs it
  (``page_write_us``).

Chips within a channel operate in parallel, so the channel's sustainable
throughput is ``page_size / max(bus_time, (op_time + bus_time) / n_chips)``.
With the default timing this calibrates to roughly 64 MB/s per channel,
the figure quoted in Section 3.6.2 of the paper.

Garbage collection occupies a chip (and implicitly the channel's free-block
accounting) for the duration of the migrate-and-erase sequence.

Structure-of-arrays layout: every channel's busy horizons, effective
timings, and fault state live in a device-shared
:class:`repro.ssd.blockstate.ChannelArrays`, and its blocks' state in a
device-shared :class:`repro.ssd.blockstate.BlockStore` (see that module
for the layout and its rationale).  The methods below are the object API
over those columns; hot loops in the FTL and dispatcher index the flat
arrays directly.  A channel constructed standalone (tests) builds private
arrays of the same shape, so the timing math is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.config import SSDConfig
from repro.ssd.blockstate import BlockStore, ChannelArrays
from repro.ssd.geometry import FlashBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


@dataclass
class ChannelStats:
    """Cumulative per-channel counters, used for utilization metrics."""

    pages_read: int = 0
    pages_written: int = 0
    gc_pages_migrated: int = 0
    gc_erases: int = 0
    busy_us: float = 0.0
    gc_busy_us: float = 0.0

    def snapshot(self) -> "ChannelStats":
        """An independent copy of the counters (for windowed deltas)."""
        return ChannelStats(
            pages_read=self.pages_read,
            pages_written=self.pages_written,
            gc_pages_migrated=self.gc_pages_migrated,
            gc_erases=self.gc_erases,
            busy_us=self.busy_us,
            gc_busy_us=self.gc_busy_us,
        )


class Channel:
    """One flash channel: chips, blocks, a bus, and outstanding-op limits."""

    def __init__(
        self,
        channel_id: int,
        config: SSDConfig,
        sim: "Simulator",
        store: Optional[BlockStore] = None,
        arrays: Optional[ChannelArrays] = None,
        gid_base: int = 0,
    ) -> None:
        self.channel_id = channel_id
        self.config = config
        self.sim = sim
        if arrays is None:
            arrays = ChannelArrays(config.num_channels, config.chips_per_channel)
        self.arrays = arrays
        self._chip_base = channel_id * config.chips_per_channel
        blocks_per_channel = config.chips_per_channel * config.blocks_per_chip
        if store is None:
            store = BlockStore(blocks_per_channel, config.pages_per_block)
            gid_base = 0
        self.store = store
        self.gid_base = gid_base
        self.blocks: list[FlashBlock] = [
            FlashBlock(
                channel_id,
                chip,
                index,
                config.pages_per_block,
                store,
                gid_base + chip * config.blocks_per_chip + index,
            )
            for chip in range(config.chips_per_channel)
            for index in range(config.blocks_per_chip)
        ]
        # The store's gid→view list is appended in construction order;
        # the device builds channels in channel_id order, so views land
        # at their gid offsets.
        store.blocks.extend(self.blocks)
        self._next_write_chip = 0
        self.outstanding = 0
        self.in_gc = False
        self._gc_until = 0.0
        self.stats = ChannelStats()
        self._recompute_timing()

    def _recompute_timing(self) -> None:
        """Cache slowdown-scaled op timings in the channel arrays.

        ``service_read``/``service_write`` run once per page on the I/O
        critical path; multiplying config constants by the (almost always
        1.0) fault slowdown per call was measurable.  The products here
        use exactly the expressions the service methods used inline, so
        the cached values are bit-identical, and they are refreshed on
        every fault transition.
        """
        cfg = self.config
        arrays = self.arrays
        cid = self.channel_id
        slowdown = arrays.slowdown[cid]
        arrays.eff_read_us[cid] = cfg.page_read_us * slowdown
        arrays.eff_write_us[cid] = cfg.page_write_us * slowdown
        arrays.eff_xfer_us[cid] = cfg.bus_transfer_us * slowdown
        arrays.eff_gc_xfer_us[cid] = cfg.bus_transfer_us * cfg.gc_bus_share * slowdown

    # ------------------------------------------------------------------
    # Array-backed state (compatibility properties)
    # ------------------------------------------------------------------
    @property
    def _bus_busy_until(self) -> float:
        return self.arrays.bus_busy[self.channel_id]

    @_bus_busy_until.setter
    def _bus_busy_until(self, value: float) -> None:
        self.arrays.bus_busy[self.channel_id] = value

    @property
    def _chip_busy_until(self) -> List[float]:
        """Per-chip busy horizons (a copy of this channel's slice)."""
        base = self._chip_base
        return self.arrays.chip_busy[base : base + self.config.chips_per_channel]

    @property
    def fault_slowdown(self) -> float:
        return self.arrays.slowdown[self.channel_id]

    @fault_slowdown.setter
    def fault_slowdown(self, value: float) -> None:
        self.arrays.slowdown[self.channel_id] = value

    @property
    def fault_extra_latency_us(self) -> float:
        return self.arrays.extra_latency_us[self.channel_id]

    @fault_extra_latency_us.setter
    def fault_extra_latency_us(self, value: float) -> None:
        self.arrays.extra_latency_us[self.channel_id] = value

    @property
    def offline(self) -> bool:
        return self.arrays.offline[self.channel_id]

    @offline.setter
    def offline(self, value: bool) -> None:
        self.arrays.offline[self.channel_id] = value

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while any injected fault affects this channel."""
        return (
            self.offline
            or self.fault_slowdown != 1.0
            # fleetlint: disable=float-time-equality  sentinel compare against the exact literal clear_fault() assigns, not accumulated time
            or self.fault_extra_latency_us != 0.0
        )

    def set_fault(
        self,
        slowdown: Optional[float] = None,
        extra_latency_us: Optional[float] = None,
        offline: Optional[bool] = None,
    ) -> None:
        """Install fault timing; ``None`` leaves a dimension unchanged.

        ``slowdown`` multiplies every chip operation and bus transfer;
        ``extra_latency_us`` is added once per page operation (a
        controller-side hiccup); ``offline`` stops the channel from
        accepting new dispatch capacity (in-flight work still drains).
        """
        if slowdown is not None:
            if slowdown <= 0:
                raise ValueError("slowdown factor must be positive")
            self.fault_slowdown = slowdown
        if extra_latency_us is not None:
            if extra_latency_us < 0:
                raise ValueError("extra latency must be non-negative")
            self.fault_extra_latency_us = extra_latency_us
        if offline is not None:
            self.offline = offline
        self._recompute_timing()

    def clear_fault(self) -> None:
        """Restore healthy timing and capacity."""
        self.fault_slowdown = 1.0
        self.fault_extra_latency_us = 0.0
        self.offline = False
        self._recompute_timing()

    # ------------------------------------------------------------------
    # Capacity / admission
    # ------------------------------------------------------------------
    def busy_horizon_us(self) -> float:
        """Queued bus work ahead of a newly dispatched page (us)."""
        return max(0.0, self.arrays.bus_busy[self.channel_id] - self.sim.now)

    def has_capacity(self) -> bool:
        """True if the channel can absorb another page within its queue
        depth.

        The queue-depth limit is expressed as a busy horizon: a channel
        with ``max_queue_depth`` pages of bus work queued stops accepting
        new dispatches until the backlog drains, which is the backpressure
        an NVMe submission queue of that depth provides.  An offline
        channel never advertises capacity.
        """
        if self.offline:
            return False
        horizon = self.config.max_queue_depth * self.config.bus_transfer_us
        return self.busy_horizon_us() < horizon

    def queue_headroom(self) -> int:
        """How many more pages fit under the busy-horizon queue bound."""
        if self.offline:
            return 0
        remaining = (
            self.config.max_queue_depth * self.config.bus_transfer_us
            - self.busy_horizon_us()
        )
        return max(0, int(remaining / self.config.bus_transfer_us))

    def acquire(self, pages: int) -> None:
        """Count ``pages`` as outstanding on this channel."""
        self.outstanding += pages

    def release(self, pages: int) -> None:
        """Return ``pages`` previously acquired."""
        self.outstanding -= pages
        if self.outstanding < 0:
            raise RuntimeError(f"channel {self.channel_id} outstanding went negative")

    # ------------------------------------------------------------------
    # Page service (timing only; mapping is the FTL's business)
    # ------------------------------------------------------------------
    def service_read(self, chip_id: int, front: bool = False) -> float:
        """Serve a page read on ``chip_id``; returns absolute finish time.

        ``front`` models priority arbitration (FleetIO's Set_Priority at
        level HIGH): the transfer is inserted at the head of the bus
        queue — it completes after at most one in-progress transfer,
        while the queued backlog shifts behind it (the bus still does the
        same total work).
        """
        # Hot path (one call per page read): max() is spelled as inline
        # comparisons — same values, no builtin call per timing update.
        arrays = self.arrays
        cid = self.channel_id
        now = self.sim.now
        read_us = arrays.eff_read_us[cid]
        xfer_us = arrays.eff_xfer_us[cid]
        extra_us = arrays.extra_latency_us[cid]
        chip_busy = arrays.chip_busy
        ci = self._chip_base + chip_id
        sense_start = chip_busy[ci]
        if now > sense_start:
            sense_start = now
        sense_done = sense_start + read_us
        bus_busy = arrays.bus_busy[cid]
        if front:
            # Head-of-queue insertion: wait for at most one in-progress
            # transfer instead of the whole backlog.
            bus_available = min(bus_busy, now + xfer_us)
            xfer_start = max(sense_done, bus_available)
            done = xfer_start + xfer_us + extra_us
            arrays.bus_busy[cid] = max(bus_busy, now) + xfer_us + extra_us
        else:
            xfer_start = sense_done if sense_done > bus_busy else bus_busy
            done = xfer_start + xfer_us + extra_us
            arrays.bus_busy[cid] = done
        if done > chip_busy[ci]:
            chip_busy[ci] = done
        self.stats.pages_read += 1
        self.stats.busy_us += read_us + xfer_us + extra_us
        return done

    def service_write(
        self, chip_id: int, background: bool = False, front: bool = False
    ) -> float:
        """Serve a page program on ``chip_id``; returns absolute finish time.

        ``background`` marks GC copy-back programs: their bus transfer is
        charged at ``gc_bus_share`` (the rest hides in idle gaps under
        background-priority arbitration).  ``front`` inserts the transfer
        at the head of the bus queue (priority HIGH), as in
        :meth:`service_read`.
        """
        # Hot path (one call per page program): same inline-comparison
        # treatment as service_read.
        arrays = self.arrays
        cid = self.channel_id
        now = self.sim.now
        xfer_time = arrays.eff_gc_xfer_us[cid] if background else arrays.eff_xfer_us[cid]
        write_us = arrays.eff_write_us[cid]
        extra_us = arrays.extra_latency_us[cid]
        bus_busy = arrays.bus_busy[cid]
        if front and not background:
            # Head-of-queue insertion (see service_read).
            bus_available = min(bus_busy, now + xfer_time)
            xfer_done = max(now, bus_available) + xfer_time
            arrays.bus_busy[cid] = max(bus_busy, now) + xfer_time
        else:
            xfer_start = now if now > bus_busy else bus_busy
            xfer_done = xfer_start + xfer_time
            arrays.bus_busy[cid] = xfer_done
        chip_busy = arrays.chip_busy
        ci = self._chip_base + chip_id
        program_start = chip_busy[ci]
        if xfer_done > program_start:
            program_start = xfer_done
        done = program_start + write_us + extra_us
        chip_busy[ci] = done
        self.stats.pages_written += 1
        self.stats.busy_us += write_us + xfer_time + extra_us
        return done

    def occupy_for_gc(self, chip_id: int, migrate_reads: int, erases: int) -> float:
        """Charge a GC migrate-and-erase sequence.

        The erase occupies the victim chip (erase suspension is not
        modeled); page migrations stream over the channel bus, contending
        with host transfers, while the chip itself stays available for
        host reads between GC page reads (read-priority arbitration, as
        on modern controllers).  Returns the time the sequence finishes.
        The channel's ``in_gc`` flag stays set until the latest in-flight
        GC on the channel completes.
        """
        cfg = self.config
        arrays = self.arrays
        cid = self.channel_id
        slowdown = arrays.slowdown[cid]
        erase_us = erases * cfg.block_erase_us * slowdown
        ci = self._chip_base + chip_id
        erase_start = max(self.sim.now, arrays.chip_busy[ci])
        erase_done = erase_start + erase_us
        arrays.chip_busy[ci] = erase_done
        bus_time = migrate_reads * cfg.bus_transfer_us * cfg.gc_bus_share * slowdown
        arrays.bus_busy[cid] = max(self.sim.now, arrays.bus_busy[cid]) + bus_time
        done = max(erase_done, arrays.bus_busy[cid])
        self.stats.gc_pages_migrated += migrate_reads
        self.stats.gc_erases += erases
        self.stats.busy_us += erase_us + bus_time
        self.stats.gc_busy_us += erase_us + bus_time
        self.in_gc = True
        self._gc_until = max(self._gc_until, done)
        self.sim.schedule(done - self.sim.now, self._maybe_clear_gc)
        return done

    def _maybe_clear_gc(self) -> None:
        if self.sim.now >= self._gc_until:
            self.in_gc = False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Channel({self.channel_id}, outstanding={self.outstanding}, "
            f"in_gc={self.in_gc})"
        )
