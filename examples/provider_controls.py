"""Provider-side controls: admission policies, capacity harvesting, wear.

Shows the knobs a cloud operator (not the RL) owns:

* admission policies barring spot tenants from harvesting and capping
  how much any tenant can lend out (Section 3.5's custom permission
  checks);
* capacity-purpose harvesting that durably extends a tenant's usable
  space (the Section 5 extension);
* wear and telemetry reporting for fleet health.

Run:  python examples/provider_controls.py
"""

import tempfile
from pathlib import Path

from repro.harness.telemetry import windows_to_csv
from repro.core.monitor import VssdMonitor
from repro.virt import (
    StorageVirtualizer,
    cap_offered_fraction,
    deny_harvest_for_classes,
)
from repro.virt.actions import HarvestAction, MakeHarvestableAction


def main() -> None:
    virt = StorageVirtualizer()
    premium = virt.create_vssd("premium-db", list(range(8)), tenant_class="premium")
    spot = virt.create_vssd("spot-batch", list(range(8, 12)), tenant_class="spot")
    standard = virt.create_vssd("web-tier", list(range(12, 16)), tenant_class="standard")
    monitors = {}
    for vssd in (premium, spot, standard):
        monitor = VssdMonitor(vssd)
        virt.dispatcher.add_completion_callback(monitor.on_complete)
        monitors[vssd.name] = monitor

    # Operator policy: spot tenants may offer but never harvest, and no
    # tenant lends out more than half its channels.
    virt.admission.add_policy(deny_harvest_for_classes("spot"))
    virt.admission.add_policy(cap_offered_fraction(0.5))

    per = virt.config.channel_write_bandwidth_mbps
    print("premium-db offers 2 channels; spot tries to harvest them:")
    virt.admission.submit(MakeHarvestableAction(premium.vssd_id, 2 * per + 1))
    virt.admission.submit(HarvestAction(spot.vssd_id, 2 * per + 1))
    virt.admission.process_batch()
    print(f"  spot harvested channels: {spot.harvested_channel_count()} "
          f"(denied by policy: {virt.admission.stats.denied})")

    print("\nweb-tier harvests the same offer for durable *capacity*:")
    before = standard.usable_capacity_pages()
    gsb = virt.gsb_manager.harvest(standard, 2 * per + 1, purpose="capacity")
    after = standard.usable_capacity_pages()
    print(f"  usable capacity: {before} -> {after} pages "
          f"(+{(after - before) * virt.config.page_size >> 20} MiB via gSB #{gsb.gsb_id})")

    print("\npremium-db tries to over-lend (cap is half its channels):")
    for target_channels in (4, 6, 8):
        virt.admission.submit(
            MakeHarvestableAction(premium.vssd_id, target_channels * per + 1)
        )
        virt.admission.process_batch()
    print(f"  channels offered: {premium.offered_channel_count()} of "
          f"{premium.num_channels} (cap_offered_fraction(0.5) held the line; "
          f"denied so far: {virt.admission.stats.denied})")

    # Enough overwrite traffic to exercise GC, then fleet-health reports.
    for lpn in range(110_000):
        standard.ftl.write_span(lpn % 40_000, 1)
    for name, monitor in monitors.items():
        monitor.snapshot_window(virt.sim.now_seconds + 1.0)
    workdir = Path(tempfile.mkdtemp(prefix="repro-ops-"))
    rows = windows_to_csv(
        {name: m.window_history for name, m in monitors.items()},
        workdir / "windows.csv",
    )
    wear = virt.ssd.wear_summary(vssd_id=standard.vssd_id)
    print(f"\nfleet health: {rows} telemetry rows -> {workdir / 'windows.csv'}")
    print(f"web-tier wear: mean {wear['mean']:.2f} erases/block, "
          f"spread {wear['spread']} (min {wear['min']}, max {wear['max']})")


if __name__ == "__main__":
    main()
