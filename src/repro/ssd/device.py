"""The shared SSD device: channels plus block-ownership management."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.config import SSDConfig
from repro.ssd.blockstate import BlockStore, ChannelArrays
from repro.ssd.channel import Channel, ChannelStats
from repro.ssd.geometry import BlockState, FlashBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Ssd:
    """One physical open-channel SSD shared by all vSSDs.

    The device exposes channel-level allocation (the unit of hardware
    isolation) and block-level ownership transfer (the unit of ghost-
    superblock harvesting).

    All per-block and per-channel mutable state lives in two device-wide
    structure-of-arrays stores (``store``/``arrays`` — see
    :mod:`repro.ssd.blockstate`); channels and blocks are views over
    them.  Block gids are channel-major, so one channel's blocks occupy
    the contiguous gid range ``[c * bpc, (c + 1) * bpc)``.
    """

    def __init__(self, config: SSDConfig, sim: "Simulator") -> None:
        self.config = config
        self.sim = sim
        blocks_per_channel = config.chips_per_channel * config.blocks_per_chip
        self.store = BlockStore(
            config.num_channels * blocks_per_channel, config.pages_per_block
        )
        self.arrays = ChannelArrays(config.num_channels, config.chips_per_channel)
        self.channels = [
            Channel(
                c,
                config,
                sim,
                store=self.store,
                arrays=self.arrays,
                gid_base=c * blocks_per_channel,
            )
            for c in range(config.num_channels)
        ]

    def close(self) -> None:
        """Drop the store's gid → view list, whose views each hold the
        store back.  Channels keep their own view lists.  Idempotent."""
        self.store.blocks.clear()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_channels(self, vssd_id: int, channel_ids: Iterable[int]) -> list:
        """Give every unowned block on the listed channels to ``vssd_id``."""
        granted: list[FlashBlock] = []
        for channel_id in channel_ids:
            for block in self.channels[channel_id].blocks:
                if block.owner is None:
                    block.owner = vssd_id
                    granted.append(block)
        return granted

    def allocate_blocks_striped(
        self, vssd_id: int, channel_ids: Iterable[int], blocks_per_channel: int
    ) -> list:
        """Give ``blocks_per_channel`` unowned blocks on each listed channel
        to ``vssd_id``, spread evenly across chips.

        This is how software-isolated vSSDs share every channel: each
        tenant owns a slice of blocks on all channels and contends for the
        channels' bandwidth.
        """
        granted: list[FlashBlock] = []
        for channel_id in channel_ids:
            channel = self.channels[channel_id]
            taken = 0
            # Round-robin chips so the slice exploits chip parallelism.
            by_chip: dict = {}
            for block in channel.blocks:
                if block.owner is None:
                    by_chip.setdefault(block.chip_id, []).append(block)
            chips = sorted(by_chip)
            idx = 0
            while taken < blocks_per_channel and chips:
                chip = chips[idx % len(chips)]
                bucket = by_chip[chip]
                if bucket:
                    block = bucket.pop(0)
                    block.owner = vssd_id
                    granted.append(block)
                    taken += 1
                else:
                    chips.remove(chip)
                    continue
                idx += 1
            if taken < blocks_per_channel:
                raise ValueError(
                    f"channel {channel_id} has only {taken} unowned blocks, "
                    f"need {blocks_per_channel}"
                )
        return granted

    def release_all(self, vssd_id: int) -> int:
        """Drop ownership of all of ``vssd_id``'s blocks (deallocation)."""
        count = 0
        for channel in self.channels:
            for block in channel.blocks:
                if block.owner == vssd_id:
                    block.owner = None
                    count += 1
        return count

    def channels_owned_by(self, vssd_id: int) -> list:
        """Channel ids on which ``vssd_id`` owns at least one block."""
        return [
            channel.channel_id
            for channel in self.channels
            if any(block.owner == vssd_id for block in channel.blocks)
        ]

    def free_blocks_of(self, vssd_id: int, channel_id: int) -> list:
        """FREE blocks owned by ``vssd_id`` on ``channel_id``."""
        return [
            block
            for block in self.channels[channel_id].blocks
            if block.owner == vssd_id and block.state is BlockState.FREE
        ]

    # ------------------------------------------------------------------
    # Bandwidth / stats
    # ------------------------------------------------------------------
    @property
    def total_write_bandwidth_mbps(self) -> float:
        """Aggregate nominal write bandwidth of all channels (MB/s)."""
        return self.config.num_channels * self.config.channel_write_bandwidth_mbps

    def aggregate_stats(self) -> ChannelStats:
        """Device-wide sum of all per-channel counters."""
        total = ChannelStats()
        for channel in self.channels:
            stats = channel.stats
            total.pages_read += stats.pages_read
            total.pages_written += stats.pages_written
            total.gc_pages_migrated += stats.gc_pages_migrated
            total.gc_erases += stats.gc_erases
            total.busy_us += stats.busy_us
            total.gc_busy_us += stats.gc_busy_us
        return total

    def wear_summary(self, vssd_id: Optional[int] = None) -> dict:
        """Erase-wear statistics across blocks (optionally one tenant's).

        Uniform lifetime is the concern the paper inherits from FlashBlox:
        harvesting moves write traffic between tenants' blocks, so wear
        tracking shows whether any channel or tenant ages prematurely.
        """
        store = self.store
        if vssd_id is None:
            counts = [int(c) for c in store.erase_count]
        else:
            owner = store.owner
            counts = [
                int(store.erase_count[gid])
                for gid in range(store.n_blocks)
                if owner[gid] == vssd_id
            ]
        if not counts:
            return {"blocks": 0, "min": 0, "max": 0, "mean": 0.0, "spread": 0}
        total = sum(counts)
        return {
            "blocks": len(counts),
            "min": min(counts),
            "max": max(counts),
            "mean": total / len(counts),
            "spread": max(counts) - min(counts),
        }

    def any_in_gc(self, channel_ids: Optional[Iterable[int]] = None) -> bool:
        """True if GC is active on any (or any listed) channel."""
        if channel_ids is None:
            return any(channel.in_gc for channel in self.channels)
        return any(self.channels[c].in_gc for c in channel_ids)

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------
    def set_channel_fault(
        self,
        channel_id: int,
        slowdown: Optional[float] = None,
        extra_latency_us: Optional[float] = None,
        offline: Optional[bool] = None,
    ) -> None:
        """Degrade one channel's timing/capacity (see ``Channel.set_fault``)."""
        self.channels[channel_id].set_fault(slowdown, extra_latency_us, offline)

    def clear_channel_fault(self, channel_id: int) -> None:
        """Restore one channel to healthy timing and capacity."""
        self.channels[channel_id].clear_fault()

    def degraded_channels(self) -> list:
        """Ids of all channels currently carrying an injected fault."""
        return [c.channel_id for c in self.channels if c.degraded]
