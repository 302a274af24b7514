"""The ghost-superblock lifecycle, step by step, without RL.

Drives the storage-virtualization layer directly through the admission
controller: a latency tenant offers storage, a batch tenant harvests it,
writes through the harvested channels, and finally the home tenant
reclaims its resources while the harvester's data migrates home intact —
the full Section 3.6 state machine.

Run:  python examples/harvesting_lifecycle.py
"""

import numpy as np

from repro.sched.request import Priority
from repro.ssd import BlockState
from repro.virt import StorageVirtualizer
from repro.virt.actions import HarvestAction, MakeHarvestableAction, SetPriorityAction
from repro.workloads import WorkloadModel, get_spec, make_driver


def show(virt, home, harvester, stage: str) -> None:
    pool = virt.gsb_manager.pool.available()
    print(
        f"[{stage:^28s}] pool={pool} gSBs | "
        f"{home.name}: offers {home.offered_channel_count()}ch | "
        f"{harvester.name}: harvested {harvester.harvested_channel_count()}ch, "
        f"writes to channels {harvester.ftl.write_channels()}"
    )


def main() -> None:
    virt = StorageVirtualizer()
    home = virt.create_vssd("vdi-web", list(range(8)), slo_latency_us=1500.0)
    harvester = virt.create_vssd("terasort", list(range(8, 16)))
    per_channel = virt.config.channel_write_bandwidth_mbps

    # Attach live workloads so the lifecycle runs under real traffic.
    rng = np.random.default_rng(0)
    for vssd, workload in ((home, "vdi-web"), (harvester, "terasort")):
        pages = (
            sum(vssd.ftl._own_blocks_per_channel.values())
            * virt.config.pages_per_block
        )
        vssd.ftl.warm_fill(range(int(pages * 0.5)))
        model = WorkloadModel(get_spec(workload), rng, int(pages * 0.4))
        driver = make_driver(
            model, vssd.vssd_id, virt.sim, virt.dispatcher.submit,
            virt.config.page_size,
        )
        virt.dispatcher.add_completion_callback(
            lambda r, d=driver, vid=vssd.vssd_id: d.on_complete(r)
            if r.vssd_id == vid
            else None
        )
        driver.start()
    virt.admission.start()
    show(virt, home, harvester, "initial")

    # 1. The latency tenant offers three channels' worth of bandwidth.
    virt.admission.submit(
        MakeHarvestableAction(home.vssd_id, 3 * per_channel + 1)
    )
    virt.sim.run_until_seconds(0.1)  # one 50 ms admission batch later
    show(virt, home, harvester, "after Make_Harvestable(3ch)")

    # 2. The batch tenant harvests, and the home tenant protects its SLO.
    virt.admission.submit(HarvestAction(harvester.vssd_id, 3 * per_channel + 1))
    virt.admission.submit(SetPriorityAction(home.vssd_id, Priority.HIGH))
    virt.sim.run_until_seconds(0.2)
    show(virt, home, harvester, "after Harvest(3ch)")

    # 3. Run with harvested bandwidth for a while.
    virt.sim.run_until_seconds(6.0)
    gsb = harvester.harvested_gsbs[0]
    state = virt.ssd.store.state
    used = sum(1 for gid in gsb.blocks if state[gid] is not BlockState.FREE)
    print(
        f"    ... 6 s of traffic later: gSB #{gsb.gsb_id} has "
        f"{used}/{len(gsb.blocks)} blocks holding {harvester.name} data, "
        f"write amplification {harvester.ftl.stats.write_amplification:.2f}"
    )

    # 4. The home tenant wants everything back: lazy reclamation.
    virt.admission.submit(MakeHarvestableAction(home.vssd_id, 1e-9))
    virt.sim.run_until_seconds(6.3)
    virt.gsb_manager.pump_reclaims()
    show(virt, home, harvester, "after reclaim")
    stats = virt.gsb_manager.stats
    print(
        f"    lifecycle totals: {stats.gsbs_created} created, "
        f"{stats.gsbs_harvested} harvested, {stats.blocks_offered} blocks "
        f"offered, {stats.blocks_returned} returned"
    )
    assert stats.blocks_returned == stats.blocks_offered
    print("    all offered blocks returned home; harvester data migrated intact")


if __name__ == "__main__":
    main()
