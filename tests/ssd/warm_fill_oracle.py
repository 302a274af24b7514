"""The per-page ``VssdFtl.warm_fill`` loop, kept as a test oracle.

This is the body ``warm_fill`` had before it placed whole striping epochs
as column scatters: the fused pick-frontier + program + remap sequence of
``write_span``, once per page, minus channel timing, host statistics and
GC checks.  ``test_warm_fill_differential.py`` drives it and the
production method over twin FTLs and requires identical state.
"""

from __future__ import annotations

from typing import Iterable

from repro.ssd.ftl import OutOfSpaceError, VssdFtl
from repro.ssd.geometry import BlockState


def warm_fill_per_page(ftl: VssdFtl, lpns: Iterable[int]) -> int:
    """Program ``lpns`` one page at a time; returns the pages programmed."""
    store = ftl._store
    arrays = ftl._arrays
    state_col = store.state
    wp_col = store.write_ptr
    vc_col = store.valid_count
    lpns2d = store.page_lpns
    bus_busy = arrays.bus_busy
    offline = arrays.offline
    full_state = BlockState.FULL
    open_state = BlockState.OPEN
    ppb = ftl.config.pages_per_block
    now = ftl.ssd.sim.now
    bound = ftl._qd_bound_us
    own_region = ftl.own_region
    harvest_regions = ftl.harvest_regions
    vssd = ftl.vssd_id
    l2p_gid = ftl._l2p_gid
    l2p_page = ftl._l2p_page
    count = 0
    for lpn in lpns:
        # Same fused pick+program sequence as ``write_span`` (which
        # see), minus channel timing, host statistics, and GC checks —
        # warming changes mapping and block state only.
        if lpn >= len(l2p_gid):
            grow = lpn + 1 - len(l2p_gid)
            l2p_gid.extend([-1] * grow)
            l2p_page.extend([0] * grow)
        rv = own_region.version
        for hregion in harvest_regions:
            rv += hregion.version + (1000003 if hregion.reclaiming else 0)
        if ftl._slots_version != rv:
            ftl._rebuild_slots()
        slots = ftl._slots
        block = None
        if slots:
            n = len(slots)
            start = ftl._write_rr
            idx = start % n
            choice = None
            for k in range(n):
                region, channel_id = slots[idx]
                idx += 1
                if idx == n:
                    idx = 0
                if (
                    not offline[channel_id]
                    and bus_busy[channel_id] - now < bound
                ):
                    choice = (region, channel_id, k)
                    break
            if choice is None:
                best = slots[0]
                best_key = bus_busy[best[1]] - now
                if best_key < 0.0:
                    best_key = 0.0
                for slot in slots:
                    horizon = bus_busy[slot[1]] - now
                    if horizon < 0.0:
                        horizon = 0.0
                    if horizon < best_key:
                        best, best_key = slot, horizon
                region, channel_id = best
                ftl._write_rr = start + 1
            else:
                region, channel_id, k = choice
                ftl._write_rr = start + k + 1
            open_queue = region._open.get(channel_id)
            if (
                open_queue
                and len(open_queue) >= region.max_open_per_channel
            ):
                head = open_queue[0]
                if state_col[head.gid] is not full_state:
                    open_queue.rotate(-1)
                    block = head
            if block is None:
                block = region.frontier_block(channel_id, vssd)
        if block is None:
            block = ftl._pick_frontier()
            if block is None:
                if not ftl._in_gc:
                    ftl._urgent_gc()
                    block = ftl._pick_frontier()
                if block is None:
                    raise OutOfSpaceError(
                        f"vSSD {ftl.vssd_id}: no programmable block available"
                    )
        gid = block.gid
        # Read with the frontier in hand: urgent GC may have moved ``lpn``.
        old_gid = l2p_gid[lpn]
        old_page = l2p_page[lpn]
        page = wp_col[gid]
        if page >= ppb:
            raise RuntimeError(f"block {block.block_id} is full")
        lpns2d[gid, page] = lpn
        vc_col[gid] += 1
        nxt = page + 1
        wp_col[gid] = nxt
        state_col[gid] = full_state if nxt == ppb else open_state
        l2p_gid[lpn] = gid
        l2p_page[lpn] = page
        if old_gid >= 0:
            if lpns2d[old_gid, old_page] == -1:
                raise RuntimeError(
                    f"double invalidate of page {old_page} in block "
                    f"{store.blocks[old_gid].block_id}"
                )
            lpns2d[old_gid, old_page] = -1
            vc_col[old_gid] -= 1
        else:
            ftl._mapped += 1
        count += 1
    return count

