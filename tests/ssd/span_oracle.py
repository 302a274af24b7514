"""The per-page host data path, kept as a test oracle.

These are the ``VssdFtl.write_page`` / ``read_page`` methods (with their
``_maybe_gc`` and ``_read_unmapped`` halves) that ``VssdFtl.write_span`` /
``read_span`` replaced, as free functions composed from the object API:
``WriteRegion.frontier_block``, ``BlockStore.program`` / ``invalidate`` /
``locate``,
``Channel.has_capacity`` / ``busy_horizon_us`` / ``service_read`` /
``service_write`` and ``VssdFtl.free_fraction``.  They share with the
spans only what has to be one thing for twin FTLs to stay comparable: the
striping-slot cache (``_slots`` / ``_rebuild_slots``), the round-robin
counters and GC itself (``run_gc`` / ``recycle_region`` / ``_urgent_gc``,
which ``gc_oracle.py`` holds to their own per-page loop).
``test_span_differential.py`` drives a twin FTL through :func:`span` and
requires identical returns, errors and state after every request.
"""

from __future__ import annotations

from typing import Optional

from repro.ssd.ftl import OutOfSpaceError, VssdFtl


def _pick_frontier(ftl: VssdFtl) -> Optional[int]:
    """Next round-robin slot whose channel has queue headroom, else the
    least busy one (an offline one only when none is online); retried while the chosen channel turns out exhausted
    (each miss bumps the region version, so the slot list shrinks)."""
    channels = ftl.ssd.channels
    for _ in range(4 * ftl.config.num_channels + 8):
        if ftl._slots_version != ftl._regions_version():
            ftl._rebuild_slots()
        slots = ftl._slots
        if not slots:
            return None
        start = ftl._write_rr
        for k in range(len(slots)):
            region, channel_id = slots[(start + k) % len(slots)]
            if channels[channel_id].has_capacity():
                ftl._write_rr = start + k + 1
                break
        else:
            online = [slot for slot in slots if not channels[slot[1]].offline]
            region, channel_id = min(
                online or slots, key=lambda slot: channels[slot[1]].busy_horizon_us()
            )
            ftl._write_rr = start + 1
        gid = region.frontier_block(channel_id, ftl.vssd_id)
        if gid is not None:
            return gid
    return None


def _frontier_or_urgent_gc(ftl: VssdFtl) -> int:
    gid = _pick_frontier(ftl)
    if gid is None and not ftl._in_gc:
        ftl._urgent_gc()
        gid = _pick_frontier(ftl)
    if gid is None:
        raise OutOfSpaceError(f"vSSD {ftl.vssd_id}: no programmable block available")
    return gid


def _maybe_gc(ftl: VssdFtl, channel_id: int) -> None:
    """Threshold GC on an own channel, else recycle a dry live gSB."""
    if ftl._in_gc:
        return
    if (
        ftl._own_blocks_per_channel.get(channel_id, 0) > 0
        and ftl.free_fraction(channel_id) < ftl.gc_threshold
    ):
        ftl.run_gc(channel_id)
        return
    for region in ftl.harvest_regions:
        if (
            not region.reclaiming
            and channel_id in region.channels()
            and region.free_block_count_on(channel_id) == 0
        ):
            ftl.recycle_region(region, channel_id)
            break


def write_page(ftl: VssdFtl, lpn: int, front: bool = False) -> float:
    """Write one logical page; returns its completion time (us)."""
    l2p_gid = ftl._l2p_gid
    l2p_page = ftl._l2p_page
    if lpn >= len(l2p_gid):
        grow = lpn + 1 - len(l2p_gid)
        l2p_gid.extend([-1] * grow)
        l2p_page.extend([0] * grow)
    store = ftl._store
    gid = _frontier_or_urgent_gc(ftl)
    # Read with the frontier in hand: urgent GC may move ``lpn``.
    old_gid = l2p_gid[lpn]
    old_page = l2p_page[lpn]
    page = store.program(gid, lpn)
    l2p_gid[lpn] = gid
    l2p_page[lpn] = page
    if old_gid >= 0:
        store.invalidate(old_gid, old_page)
    else:
        ftl._mapped += 1
    channel_id, chip_id, _index = store.locate(gid)
    done = ftl.ssd.channels[channel_id].service_write(chip_id, front=front)
    ftl.stats.host_writes += 1
    _maybe_gc(ftl, channel_id)
    return done


def _read_unmapped(ftl: VssdFtl) -> float:
    """Serve a read of a never-written LPN from an owned channel."""
    channel_ids = ftl.own_region.channels() or ftl.write_channels()
    if not channel_ids:
        raise OutOfSpaceError(f"vSSD {ftl.vssd_id} has no channels to read from")
    channel_id = channel_ids[ftl._unmapped_rr % len(channel_ids)]
    ftl._unmapped_rr += 1
    channel = ftl.ssd.channels[channel_id]
    chip_id = channel._next_write_chip
    channel._next_write_chip = (chip_id + 1) % ftl.config.chips_per_channel
    done = channel.service_read(chip_id)  # never ``front``
    ftl.stats.unmapped_reads += 1
    ftl.stats.host_reads += 1
    return done


def read_page(ftl: VssdFtl, lpn: int, front: bool = False) -> float:
    """Read one logical page; returns its completion time (us)."""
    location = ftl.page_location(lpn)
    if location is None:
        return _read_unmapped(ftl)
    channel_id, chip_id, _index = ftl._store.locate(location[0])
    done = ftl.ssd.channels[channel_id].service_read(chip_id, front=front)
    ftl.stats.host_reads += 1
    return done


def span(ftl: VssdFtl, op: str, lpn: int, num_pages: int, front: bool = False) -> float:
    """One request the way the dispatcher served it before the spans: a
    ``write_page`` / ``read_page`` call per page, folded into the
    completion time of the slowest page, as a span returns."""
    page_io = write_page if op == "write" else read_page
    if op == "write" and lpn + num_pages > len(ftl._l2p_gid):
        # ``write_span`` sizes the map for the whole span up front; match
        # it, so a span that runs out of space leaves equal lists.
        grow = lpn + num_pages - len(ftl._l2p_gid)
        ftl._l2p_gid.extend([-1] * grow)
        ftl._l2p_page.extend([0] * grow)
    done = ftl.ssd.sim.now
    for cur in range(lpn, lpn + num_pages):
        page_done = page_io(ftl, cur, front)
        if page_done > done:
            done = page_done
    return done
