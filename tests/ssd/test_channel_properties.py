"""Property tests for channel timing under random operation mixes."""

from hypothesis import given, settings, strategies as st

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd.channel import Channel


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["read", "write", "front_read", "front_write", "bg_write"]),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_timing_invariants(ops):
    """For any operation mix:

    * completions respect the physical service floor;
    * per-chip busy horizons never go backwards;
    * each chip's horizon is at least the sense/program work charged to
      that chip;
    * the bus horizon is at least the charged transfer work (nothing
      rides for free) — idle gaps may push it later, never earlier.
    """
    config = SSDConfig(num_channels=1)
    sim = Simulator()
    channel = Channel(0, config, sim)
    last_chip_done = {}
    chip_work = {}
    expected_transfer_work = 0.0
    floor_read = config.page_read_us + config.bus_transfer_us
    for op, chip in ops:
        if op in ("read", "front_read"):
            done = channel.service_read(chip, front=op.startswith("front"))
            assert done >= floor_read - 1e-9
            chip_work[chip] = chip_work.get(chip, 0.0) + config.page_read_us
            expected_transfer_work += config.bus_transfer_us
        elif op in ("write", "front_write"):
            done = channel.service_write(chip, front=op.startswith("front"))
            assert done >= config.bus_transfer_us + config.page_write_us - 1e-9
            chip_work[chip] = chip_work.get(chip, 0.0) + config.page_write_us
            expected_transfer_work += config.bus_transfer_us
        else:
            done = channel.service_write(chip, background=True)
            charged = config.bus_transfer_us * config.gc_bus_share
            chip_work[chip] = chip_work.get(chip, 0.0) + config.page_write_us
            expected_transfer_work += charged
        assert done > 0
        if chip in last_chip_done:
            assert channel.arrays.chip_busy[chip] >= last_chip_done[chip] - 1e-9
        last_chip_done[chip] = channel.arrays.chip_busy[chip]
    for chip, work in chip_work.items():
        assert channel.arrays.chip_busy[chip] >= work - 1e-9
    assert channel.arrays.bus_busy[0] >= expected_transfer_work - 1e-9


@settings(max_examples=30, deadline=None)
@given(backlog=st.integers(0, 40))
def test_front_insertion_bounded_wait(backlog):
    """A front-inserted read on an *idle chip* waits at most one
    in-flight bus transfer plus its own, regardless of how deep the bus
    backlog is (the chip itself may of course still be programming —
    priority jumps the queue, not physics)."""
    config = SSDConfig(num_channels=1)
    channel = Channel(0, config, Simulator())
    busy_chips = [1 + i % (config.chips_per_channel - 1) for i in range(backlog)]
    for chip in busy_chips:
        channel.service_write(chip)
    done = channel.service_read(0, front=True)  # chip 0 stayed idle
    ceiling = config.page_read_us + 2 * config.bus_transfer_us
    assert done <= ceiling + 1e-9
