"""The shared SSD device: channels plus block-ownership management."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.config import SSDConfig
from repro.ssd.blockstate import BlockState, BlockStore, ChannelArrays
from repro.ssd.channel import Channel

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Ssd:
    """One physical open-channel SSD shared by all vSSDs.

    The device exposes channel-level allocation (the unit of hardware
    isolation) and block-level ownership transfer (the unit of ghost-
    superblock harvesting).

    All per-block and per-channel mutable state lives in two device-wide
    structure-of-arrays stores (``store``/``arrays`` — see
    :mod:`repro.ssd.blockstate`); a block is its gid in ``store`` and a
    channel the object API over its ``arrays`` columns.  Gids are
    channel-major, so one channel's blocks occupy the contiguous gid range
    ``[c * bpc, (c + 1) * bpc)``; the allocators below scan those ranges
    and hand out gids.
    """

    def __init__(self, config: SSDConfig, sim: "Simulator") -> None:
        self.config = config
        self.sim = sim
        self.store = BlockStore(
            config.num_channels,
            config.chips_per_channel,
            config.blocks_per_chip,
            config.pages_per_block,
        )
        self.arrays = ChannelArrays(config.num_channels, config.chips_per_channel)
        self.channels = [
            Channel(c, config, sim, arrays=self.arrays)
            for c in range(config.num_channels)
        ]

    def channel_gids(self, channel_id: int) -> range:
        """The gids of ``channel_id``'s blocks, chip by chip."""
        bpc = self.store.blocks_per_channel
        return range(channel_id * bpc, (channel_id + 1) * bpc)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_channels(self, vssd_id: int, channel_ids: Iterable[int]) -> list:
        """Give every unowned block on the listed channels to ``vssd_id``;
        returns their gids."""
        owner = self.store.owner
        granted: list = []
        for channel_id in channel_ids:
            for gid in self.channel_gids(channel_id):
                if owner[gid] is None:
                    owner[gid] = vssd_id
                    granted.append(gid)
        return granted

    def allocate_blocks_striped(
        self, vssd_id: int, channel_ids: Iterable[int], blocks_per_channel: int
    ) -> list:
        """Give ``blocks_per_channel`` unowned blocks on each listed channel
        to ``vssd_id``, spread evenly across chips; returns their gids.

        This is how software-isolated vSSDs share every channel: each
        tenant owns a slice of blocks on all channels and contends for the
        channels' bandwidth.
        """
        owner = self.store.owner
        bpchip = self.store.blocks_per_chip
        granted: list = []
        for channel_id in channel_ids:
            taken = 0
            # Round-robin chips so the slice exploits chip parallelism.
            by_chip: dict = {}
            for gid in self.channel_gids(channel_id):
                if owner[gid] is None:
                    by_chip.setdefault(gid // bpchip, []).append(gid)
            chips = sorted(by_chip)
            idx = 0
            while taken < blocks_per_channel and chips:
                chip = chips[idx % len(chips)]
                bucket = by_chip[chip]
                if bucket:
                    gid = bucket.pop(0)
                    owner[gid] = vssd_id
                    granted.append(gid)
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
        owner = self.store.owner
        count = 0
        for gid in range(self.store.n_blocks):
            if owner[gid] == vssd_id:
                owner[gid] = None
                count += 1
        return count

    def channels_owned_by(self, vssd_id: int) -> list:
        """Channel ids on which ``vssd_id`` owns at least one block."""
        owner = self.store.owner
        return [
            channel.channel_id
            for channel in self.channels
            if any(owner[gid] == vssd_id for gid in self.channel_gids(channel.channel_id))
        ]

    def free_blocks_of(self, vssd_id: int, channel_id: int) -> list:
        """Gids of the FREE blocks ``vssd_id`` owns on ``channel_id``."""
        store = self.store
        return [
            gid
            for gid in self.channel_gids(channel_id)
            if store.owner[gid] == vssd_id and store.state[gid] is BlockState.FREE
        ]

    # ------------------------------------------------------------------
    # Bandwidth / stats
    # ------------------------------------------------------------------
    @property
    def total_write_bandwidth_mbps(self) -> float:
        """Aggregate nominal write bandwidth of all channels (MB/s)."""
        return self.config.num_channels * self.config.channel_write_bandwidth_mbps

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
