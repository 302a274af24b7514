"""The per-page GC copy-back loop, kept as a test oracle.

This is the relocation ``VssdFtl._collect_block`` did before it ran a
victim's valid pages against the block/channel columns in one fused pass
(``VssdFtl._relocate``): per page, the GC legs of ``_pick_frontier`` (a
sort of the writable own channels by ``busy_horizon_us``, or the pinned
region's writable channels in id order), ``FlashBlock.program`` /
``invalidate`` through the block views and ``Channel.service_write``
through the channel object.  ``test_gc_differential.py`` puts it under one
of two twin FTLs with :func:`use_per_page_gc` and requires identical state.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.ssd.ftl import OutOfSpaceError, VssdFtl
from repro.ssd.geometry import FlashBlock
from repro.ssd.region import WriteRegion


def _pick_gc_frontier(
    ftl: VssdFtl, target_region: Optional[WriteRegion]
) -> Optional[FlashBlock]:
    """The ``target_region=`` and ``for_gc=True`` legs of ``_pick_frontier``."""
    if target_region is not None:
        for channel_id in target_region.writable_channels():
            block = target_region.frontier_block(channel_id, ftl.vssd_id)
            if block is not None:
                return block
        return None
    # Copy-back writes spread across the least-busy own channels
    # so a GC batch does not bury one channel in backlog.
    channels = sorted(
        ftl.own_region.writable_channels(),
        key=lambda ch: ftl.ssd.channels[ch].busy_horizon_us(),
    )
    for channel_id in channels:
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
    block = _pick_gc_frontier(ftl, target_region)
    if block is None:
        raise OutOfSpaceError(
            f"vSSD {ftl.vssd_id}: no programmable block available"
        )
    page = block.program(lpn)
    l2p_gid[lpn] = block.gid
    ftl._l2p_page[lpn] = page
    if old_gid >= 0:
        ftl._store.blocks[old_gid].invalidate(old_page)
    else:
        ftl._mapped += 1
    return block, page


def collect_block_per_page(
    ftl: VssdFtl,
    victim: FlashBlock,
    region: Optional[WriteRegion],
    target_region: Optional[WriteRegion] = None,
) -> int:
    """Migrate valid pages out of ``victim``, erase it, route it."""
    valid = victim.valid_lpns()
    if target_region is not None and valid:
        # In-region compaction needs somewhere inside the region to
        # put the data; bail out rather than deadlock.
        if target_region.free_pages() < len(valid):
            return 0
    channel = ftl.ssd.channels[victim.channel_id]
    for _page, lpn in valid:
        dest_block, _dest_page = _allocate_and_program_for_gc(ftl, lpn, target_region)
        # Copy-back programs consume destination channel time just
        # like host writes; this is the GC interference the RL state's
        # In_GC flag lets agents react to.
        dest = ftl.ssd.channels[dest_block.channel_id]
        dest.service_write(dest_block.chip_id, background=True)
        ftl.stats.gc_reads += 1
        ftl.stats.gc_writes += 1
    channel.occupy_for_gc(victim.chip_id, migrate_reads=len(valid), erases=1)
    was_harvested = victim.harvested_flag
    victim.erase()
    ftl.hbt.mark_regular(victim)
    ftl.stats.blocks_erased += 1
    if region is not None and region.kind == "harvest":
        if not region.reclaiming:
            # Live gSB: keep the block harvestable for continued use.
            ftl.hbt.mark_harvested(victim)
        region.release_erased(victim)
    else:
        if was_harvested and victim.owner != ftl.vssd_id:
            raise RuntimeError("own-region GC erased a foreign block")
        ftl.own_region._discard_open(victim)
        ftl.own_region.add_block(victim)
    return 1


def use_per_page_gc(ftl: VssdFtl) -> None:
    """Route every collection of ``ftl`` — ``run_gc``, ``recycle_region``,
    ``collect_blocks``, urgent GC — through the per-page loop above."""
    ftl._collect_block = partial(collect_block_per_page, ftl)  # type: ignore[method-assign]
