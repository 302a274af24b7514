"""Property tests: the zone state machine under random command traces."""

from hypothesis import given, settings, strategies as st

from repro.ssd import BlockState, BlockStore
from repro.zns.zone import Zone, ZoneError, ZoneState

COMMANDS = ("open", "close", "finish", "reset", "advance")


@settings(max_examples=60, deadline=None)
@given(
    commands=st.lists(
        st.tuples(st.sampled_from(COMMANDS), st.integers(1, 6)),
        min_size=1,
        max_size=60,
    )
)
def test_state_machine_invariants(commands):
    """Whatever command sequence is thrown at a zone:

    * the write pointer stays within [0, capacity];
    * FULL if-and-only-if pointer == capacity (except EMPTY's 0);
    * every block's programmed pages never exceed its capacity;
    * illegal transitions raise ZoneError and change nothing.
    """
    store = BlockStore(num_channels=1, chips_per_channel=2, blocks_per_chip=2,
                       pages_per_block=4)
    zone = Zone(0, [0, 2, 1], store)
    for command, arg in commands:
        before = (zone.state, zone.write_pointer, zone.resets)
        try:
            if command == "open":
                zone.open()
            elif command == "close":
                zone.close()
            elif command == "finish":
                zone.finish()
            elif command == "reset":
                if zone.state is not ZoneState.EMPTY:
                    # Blocks may hold programmed pages; emulate the
                    # namespace's erase step.
                    for gid in zone.blocks:
                        for page, _lpn in store.valid_lpns(gid):
                            store.invalidate(gid, page)
                        if store.state[gid] is not BlockState.FREE:
                            store.erase(gid)
                zone.reset()
            else:
                placements = zone.advance(arg)
                for index, (gid, page) in enumerate(placements):
                    assert store.program(gid, before[1] + index) == page
        except ZoneError:
            after = (zone.state, zone.write_pointer, zone.resets)
            assert after == before  # failed commands are side-effect-free
        # Invariants.
        assert 0 <= zone.write_pointer <= zone.capacity_pages
        if zone.state is ZoneState.FULL:
            assert zone.write_pointer == zone.capacity_pages
        if zone.state is ZoneState.EMPTY:
            assert zone.write_pointer == 0
        for gid in zone.blocks:
            assert store.write_ptr[gid] <= store.pages_per_block
        # The zone's blocks are the only ones it programs.
        assert sum(store.write_ptr) == sum(store.write_ptr[gid] for gid in zone.blocks)
