"""The per-page GC copy-back loop, kept as a test oracle.

This is the relocation ``VssdFtl._collect_block`` did before it ran a
victim's valid pages against the block/channel columns in one fused pass
(``VssdFtl._relocate``): per page, the GC legs of ``_pick_frontier`` (a
sort of the writable own channels by ``busy_horizon_us``, or the pinned
region's writable channels in id order), ``BlockStore.program`` /
``invalidate`` one call per page and ``Channel.service_write`` through
the channel object.  Victim choice is the Figure 9 rule as a plain
tuple-key ``min`` (:func:`select_own_victim`), not the production
column scan with its packed key.  ``test_gc_differential.py`` puts both
under one of two twin FTLs with :func:`use_per_page_gc` and requires
identical state.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.ssd.blockstate import BlockState
from repro.ssd.ftl import OutOfSpaceError, VssdFtl
from repro.ssd.region import WriteRegion


def _pick_gc_frontier(
    ftl: VssdFtl, target_region: Optional[WriteRegion]
) -> Optional[int]:
    """The ``target_region=`` and ``for_gc=True`` legs of ``_pick_frontier``."""
    channels = ftl.ssd.channels
    if target_region is not None:
        # Id order, an offline channel only after every online one.
        pinned = sorted(
            target_region.writable_channels(), key=lambda ch: channels[ch].offline
        )
        for channel_id in pinned:
            block = target_region.frontier_block(channel_id, ftl.vssd_id)
            if block is not None:
                return block
        return None
    # Copy-back writes spread across the least-busy own channels
    # so a GC batch does not bury one channel in backlog; an offline
    # channel takes them only once no online one can.
    ranked = sorted(
        ftl.own_region.writable_channels(),
        key=lambda ch: (channels[ch].offline, channels[ch].busy_horizon_us()),
    )
    for channel_id in ranked:
        block = ftl.own_region.frontier_block(channel_id, ftl.vssd_id)
        if block is not None:
            return block
    return None


def _allocate_and_program_for_gc(
    ftl: VssdFtl, lpn: int, target_region: Optional[WriteRegion]
) -> tuple:
    """``_allocate_and_program(lpn, for_gc=True, target_region=...)``."""
    l2p_gid = ftl._l2p_gid
    if lpn >= len(l2p_gid):
        grow = lpn + 1 - len(l2p_gid)
        l2p_gid.extend([-1] * grow)
        ftl._l2p_page.extend([0] * grow)
    old_gid = l2p_gid[lpn]
    old_page = ftl._l2p_page[lpn]
    gid = _pick_gc_frontier(ftl, target_region)
    if gid is None:
        raise OutOfSpaceError(
            f"vSSD {ftl.vssd_id}: no programmable block available"
        )
    store = ftl._store
    page = store.program(gid, lpn)
    l2p_gid[lpn] = gid
    ftl._l2p_page[lpn] = page
    if old_gid >= 0:
        store.invalidate(old_gid, old_page)
    else:
        ftl._mapped += 1
    return gid, page


def collect_block_per_page(
    ftl: VssdFtl,
    victim: int,
    region: Optional[WriteRegion],
    target_region: Optional[WriteRegion] = None,
) -> int:
    """Migrate valid pages out of block ``victim``, erase it, route it."""
    store = ftl._store
    harvest = region is not None and region.gsb_id >= 0
    if not harvest and store.gsb_of[victim] >= 0 and store.owner[victim] != ftl.vssd_id:
        raise RuntimeError("own-region GC would erase a foreign block")
    valid = store.valid_lpns(victim)
    if target_region is not None and valid:
        # In-region compaction needs somewhere inside the region to
        # put the data; bail out rather than deadlock.
        if target_region.free_pages() < len(valid):
            return 0
    channel_id, chip_id, _index = store.locate(victim)
    channel = ftl.ssd.channels[channel_id]
    for _page, lpn in valid:
        dest_gid, _dest_page = _allocate_and_program_for_gc(ftl, lpn, target_region)
        # Copy-back programs consume destination channel time just
        # like host writes; this is the GC interference the RL state's
        # In_GC flag lets agents react to.
        dest_channel, dest_chip, _index = store.locate(dest_gid)
        ftl.ssd.channels[dest_channel].service_write(dest_chip, background=True)
        ftl.stats.gc_reads += 1
        ftl.stats.gc_writes += 1
    channel.occupy_for_gc(chip_id, migrate_reads=len(valid), erases=1)
    store.erase(victim)  # the block stays in its gSB, if any
    ftl.stats.blocks_erased += 1
    if harvest:
        region.release_erased(victim)
    else:
        ftl.own_region._discard_open(victim)
        ftl.own_region.add_block(victim)
    return 1


def select_own_victim(ftl: VssdFtl, channel_id: int) -> Optional[int]:
    """Figure 9's own-pool victim on ``channel_id``, or None.

    Candidates are the channel's FULL blocks owned by this vSSD, outside
    the own frontier, written by nobody or by this vSSD; a fully valid
    block outside every gSB frees nothing and is never one.  Harvested
    (HBT = 1, ``gsb_of >= 0``) blocks go first, then the fewest valid
    pages; ties go to the first gid.
    """
    store = ftl._store
    ppb = store.pages_per_block
    bpc = store.blocks_per_channel
    frontier = ftl.own_region._open.get(channel_id, ())
    candidates = [
        gid for gid in range(channel_id * bpc, (channel_id + 1) * bpc)
        if store.state[gid] is BlockState.FULL
        and store.owner[gid] == ftl.vssd_id
        and gid not in frontier
        and store.writer[gid] in (None, ftl.vssd_id)
        and not (store.gsb_of[gid] < 0 and store.valid_count[gid] == ppb)
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda gid: (store.gsb_of[gid] < 0, store.valid_count[gid]))


def use_per_page_gc(ftl: VssdFtl) -> None:
    """Route every collection of ``ftl`` — ``run_gc``, ``recycle_region``,
    ``collect_blocks``, urgent GC — through the per-page loop above, and
    every own-pool victim choice through :func:`select_own_victim`."""
    ftl._collect_block = partial(collect_block_per_page, ftl)  # type: ignore[method-assign]
    ftl._select_own_victim = partial(select_own_victim, ftl)  # type: ignore[method-assign]
