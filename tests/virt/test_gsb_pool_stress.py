"""Stress/property tests for the gSB pool under random operations."""

from hypothesis import given, settings, strategies as st

from repro.virt.gsb import GhostSuperblock, GsbPool


def _gsb(n_chls, home, counter=[0]):
    counter[0] += 1
    blocks = [counter[0] * 100 + i for i in range(2)]
    return GhostSuperblock(
        n_chls=n_chls, blocks=blocks, home_vssd=home, blocks_per_channel=1 << 30
    )


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "acquire", "remove"]),
            st.integers(1, 8),   # size of gSB / request
            st.integers(0, 3),   # home / requester id
        ),
        min_size=1,
        max_size=60,
    )
)
def test_pool_conserves_gsbs(ops):
    """gSBs never duplicate or vanish: pooled + acquired + removed ==
    inserted, each block gid belongs to one gSB, and an acquired gSB is
    never one of the requester's own."""
    pool = GsbPool(max_channels=8)
    pooled: list = []
    acquired: list = []
    removed: list = []
    inserted = 0
    for op, size, who in ops:
        if op == "insert":
            gsb = _gsb(size, home=who)
            pool.insert(gsb)
            pooled.append(gsb)
            inserted += 1
        elif op == "acquire":
            got = pool.acquire(size, exclude_home=who)
            if got is not None:
                assert got.home_vssd != who
                assert got in pooled
                pooled.remove(got)
                acquired.append(got)
        else:
            if pooled:
                target = pooled[len(pooled) % max(len(pooled), 1) - 1]
                assert pool.remove(target)
                pooled.remove(target)
                removed.append(target)
        assert pool.available() == len(pooled)
        assert len(pooled) + len(acquired) + len(removed) == inserted
        # Block gids move only with their gSB: none is in two gSBs.
        gids = [gid for gsb in pooled + acquired + removed for gid in gsb.blocks]
        assert len(gids) == len(set(gids)) == 2 * inserted
    # Everything still pooled is acquirable by a stranger.
    for _ in range(len(pooled)):
        assert pool.acquire(1, exclude_home=99) is not None
    assert pool.acquire(1, exclude_home=99) is None


def test_acquire_exhausts_pool_exactly_once():
    pool = GsbPool(max_channels=4)
    gsbs = [_gsb(n, home=0) for n in (1, 2, 3, 4)]
    for gsb in gsbs:
        pool.insert(gsb)
    seen = set()
    for _ in range(4):
        got = pool.acquire(2, exclude_home=1)
        assert got is not None
        assert id(got) not in seen
        seen.add(id(got))
    assert pool.acquire(1, exclude_home=1) is None
