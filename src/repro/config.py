"""Configuration objects mirroring Table 3 of the FleetIO paper.

Two families of parameters are defined here:

* :class:`SSDConfig` — the software-defined-flash (SDF) geometry and timing
  used by the discrete-event SSD simulator (:mod:`repro.ssd`).
* :class:`RLConfig` — the reinforcement-learning hyper-parameters used by
  the PPO trainer and per-vSSD agents (:mod:`repro.rl`, :mod:`repro.core`).

The defaults follow Table 3 of the paper, with storage capacity scaled down
so simulations complete in seconds rather than hours.  All timing constants
are expressed in microseconds; all sizes in bytes unless a suffix says
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

KIB = 1024
MIB = 1024 * KIB

#: Microseconds per second — the simulator clock ticks in microseconds.
US_PER_SEC = 1_000_000


@dataclass(frozen=True)
class SSDConfig:
    """Geometry and timing of the simulated open-channel SSD.

    The default geometry matches Table 3 (16 channels, 4 chips per channel,
    16 KB pages, queue depth 16, 20% over-provisioning), but the per-chip
    block count is scaled down from a 1 TB device so that garbage collection
    is exercised quickly in tests and benchmarks.

    Timing is calibrated so a single channel sustains roughly 64 MB/s,
    the per-channel bandwidth quoted in the paper (Section 3.6.2).
    """

    num_channels: int = 16
    chips_per_channel: int = 4
    blocks_per_chip: int = 64
    pages_per_block: int = 64
    page_size: int = 16 * KIB
    max_queue_depth: int = 16
    #: Host-side submission window: pages a vSSD may keep in flight per
    #: channel it can use.  Eight pages (~2 ms of bus work) keeps a
    #: channel's bus pipelined while bounding the backlog a bandwidth
    #: tenant can pile in front of a collocated reader; the device-side
    #: per-channel queue depth above (Table 3's QD 16) bounds admission.
    inflight_pages_per_channel: int = 8
    overprovision_ratio: float = 0.20

    # NAND timing (microseconds), calibrated so one channel sustains
    # ~64 MB/s (Section 3.6.2): 16 KiB / max(240, (800+240)/4) us ~= 62 MB/s.
    page_read_us: float = 60.0
    page_write_us: float = 800.0
    block_erase_us: float = 3000.0
    # Channel bus transfer time for one page.
    bus_transfer_us: float = 240.0

    # GC policy: lazy GC with a 20% free-block threshold (Section 4.1).
    gc_free_block_threshold: float = 0.20
    #: Pick the least-erased free block when opening write frontiers, so
    #: erase wear spreads evenly (FlashBlox's uniform-lifetime goal).
    #: Off by default: FIFO selection is cheaper and wear only matters in
    #: endurance studies.
    wear_aware_allocation: bool = False
    #: Fraction of a GC transfer's bus time charged against host I/O.
    #: Controllers arbitrate GC data movement at background priority, so
    #: part of it hides in bus idle gaps; 0.5 means half the transfer
    #: time lands in front of host requests.
    gc_bus_share: float = 0.5
    # Do not create new gSBs on channels below this free-block fraction
    # (Section 3.6.2).
    gsb_min_free_fraction: float = 0.25
    # Minimum superblock size striped across one channel.  The paper's
    # device uses 16 blocks (64 MB); our scaled-down geometry has far
    # fewer, larger-fraction blocks per channel, so the equivalent
    # harvestable slice is ~19% of a channel (48 of 256 blocks).
    min_superblock_blocks: int = 48

    def __post_init__(self) -> None:
        if self.num_channels <= 0:
            raise ValueError("num_channels must be positive")
        if self.chips_per_channel <= 0:
            raise ValueError("chips_per_channel must be positive")
        if self.blocks_per_chip <= 0:
            raise ValueError("blocks_per_chip must be positive")
        if self.pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if not 0.0 <= self.overprovision_ratio < 1.0:
            raise ValueError("overprovision_ratio must be in [0, 1)")

    @property
    def block_size(self) -> int:
        """Bytes per flash block."""
        return self.pages_per_block * self.page_size

    @property
    def blocks_per_channel(self) -> int:
        """Blocks per channel (chips x blocks-per-chip)."""
        return self.chips_per_channel * self.blocks_per_chip

    @property
    def total_blocks(self) -> int:
        """Blocks on the whole device."""
        return self.num_channels * self.blocks_per_channel

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity including over-provisioned space."""
        return self.total_blocks * self.block_size

    @property
    def usable_bytes(self) -> int:
        """Capacity exposed to tenants after over-provisioning."""
        return int(self.capacity_bytes * (1.0 - self.overprovision_ratio))

    @property
    def channel_write_bandwidth_mbps(self) -> float:
        """Steady-state write bandwidth of one channel in MB/s.

        Chips within a channel pipeline their program operations behind
        the shared bus, so with enough chips the bus and the program time
        overlap and throughput approaches ``page_size / effective_us``.
        """
        effective_us = max(
            self.bus_transfer_us,
            (self.page_write_us + self.bus_transfer_us) / self.chips_per_channel,
        )
        return (self.page_size / MIB) / (effective_us / US_PER_SEC)

    @property
    def channel_read_bandwidth_mbps(self) -> float:
        """Steady-state read bandwidth of one channel in MB/s."""
        effective_us = max(
            self.bus_transfer_us,
            (self.page_read_us + self.bus_transfer_us) / self.chips_per_channel,
        )
        return (self.page_size / MIB) / (effective_us / US_PER_SEC)


@dataclass(frozen=True)
class RLConfig:
    """PPO hyper-parameters from Table 3 plus reward coefficients.

    ``alpha`` is the per-workload-type utilization/isolation tradeoff in
    Eq. 1; per-cluster values from Section 3.8 are exposed as
    :data:`CLUSTER_ALPHAS`.  ``beta`` blends an agent's own reward with the
    mean reward of its collocated agents (Eq. 2).
    """

    decision_interval_s: float = 2.0
    beta: float = 0.6
    learning_rate: float = 1e-4
    discount_factor: float = 0.9
    hidden_layer_sizes: tuple = (50, 50)
    batch_size: int = 32
    # PPO-specific knobs (standard defaults; not listed in Table 3).
    clip_epsilon: float = 0.2
    gae_lambda: float = 0.95
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    epochs_per_update: int = 4
    # State featurization: 9 per-vSSD states + 2 shared states, stacked
    # over 3 prior time windows (Section 3.3.1).
    states_per_window: int = 11
    history_windows: int = 3
    # Reward-function baselines (Section 3.3.3).
    slo_violation_guarantee: float = 0.01
    # Default unified alpha for unclustered workloads (Section 3.4).
    unified_alpha: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if not 0.0 < self.discount_factor <= 1.0:
            raise ValueError("discount_factor must be in (0, 1]")
        if self.decision_interval_s <= 0:
            raise ValueError("decision_interval_s must be positive")

    @property
    def state_dim(self) -> int:
        """Total input dimension of the policy/value networks."""
        return self.states_per_window * self.history_windows


#: Fine-tuned alpha per workload cluster (Section 3.8): LC-1 (latency
#: critical, e.g. VDI-Web/TPCE/SearchEngine), LC-2 (YCSB-B, high locality),
#: BI (bandwidth intensive).
CLUSTER_ALPHAS = {
    "LC-1": 2.5e-2,
    "LC-2": 5e-3,
    "BI": 0.0,
}

#: SLO-violation ceiling used when fine-tuning alpha (Section 3.4).
FINETUNE_SLO_THRESHOLD = 0.05

#: Admission-control batching interval (Section 3.5): 50 milliseconds.
ADMISSION_BATCH_INTERVAL_S = 0.05
