"""Harvesting across device types: a zoned tenant lends zones to a
block-interface tenant (the Section 5 generalizability claim).

A ZNS tenant owns half the device's channels as zones; a conventional
vSSD owns the other half.  EMPTY zones become ghost superblocks in the
same pool FleetIO uses, the block tenant harvests them for extra write
bandwidth, and lazy reclamation hands the zones back — reset, erased,
and append-ready.

Run:  python examples/zns_harvesting.py
"""

from repro.config import SSDConfig
from repro.sim import Simulator
from repro.ssd import Ssd, VssdFtl
from repro.ssd.hbt import HarvestedBlockTable
from repro.virt.gsb import GsbPool
from repro.virt.vssd import Vssd
from repro.zns import ZnsHarvestAdapter, ZonedNamespace, ZoneState


def main() -> None:
    config = SSDConfig()
    sim = Simulator()
    ssd = Ssd(config, sim)
    hbt = HarvestedBlockTable()

    # A zoned tenant on channels 0-7, a block tenant on channels 8-15.
    namespace = ZonedNamespace(
        ssd, owner_id=100, channel_ids=list(range(8)), blocks_per_zone=16
    )
    ftl = VssdFtl(1, ssd, hbt=hbt)
    ftl.adopt_blocks(ssd.allocate_channels(1, list(range(8, 16))))
    block_tenant = Vssd(1, "block-tenant", ftl, list(range(8, 16)))

    print(f"zoned tenant: {len(namespace.zones)} zones of "
          f"{namespace.zone_capacity_pages} pages on channels 0-7")

    # The zoned tenant uses a few zones itself...
    for zone_id in (0, 1):
        namespace.append(zone_id, pages=namespace.zone_capacity_pages // 2)
    print(f"zoned tenant appended into zones 0-1; "
          f"{len(namespace.zones_in(ZoneState.EMPTY))} zones are EMPTY")

    # ...and lends three EMPTY zones into the shared harvest pool.
    pool = GsbPool(config.num_channels)
    adapter = ZnsHarvestAdapter(namespace, pool, hbt)
    offered = adapter.offer_empty_zones(3)
    print(f"offered {len(offered)} zones as ghost superblocks "
          f"(pool now holds {pool.available()})")

    # The block tenant harvests them and its write set widens.
    before = set(block_tenant.ftl.write_channels())
    harvested = [adapter.harvest(block_tenant) for _ in range(3)]
    after = set(block_tenant.ftl.write_channels())
    print(f"block tenant write channels: {sorted(before)} -> {sorted(after)}")

    lpns = list(range(30_000))
    for lpn in lpns:
        block_tenant.ftl.write_span(lpn, 1)
    zone_channels = {gsb.channel_ids[0] for gsb in harvested}
    landed = sum(
        1
        for lpn in lpns
        if block_tenant.ftl.page_location(lpn).block.channel_id in zone_channels
    )
    print(f"{landed} of {len(lpns)} pages landed in harvested zones")

    # The zoned tenant takes its zones back; data migrates, zones reset.
    for gsb in harvested:
        adapter.reclaim(gsb, block_tenant)
    empty = len(namespace.zones_in(ZoneState.EMPTY))
    intact = all(
        block_tenant.ftl.page_location(lpn).block.owner == block_tenant.vssd_id
        for lpn in lpns[:100]
    )
    print(f"reclaimed: {empty} zones EMPTY again; block tenant data intact: {intact}")
    namespace.append(namespace.zones_in(ZoneState.EMPTY)[0].zone_id, pages=8)
    print("zoned tenant appends to a returned zone: OK")


if __name__ == "__main__":
    main()
