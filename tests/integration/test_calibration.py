"""Fast-env <-> DES calibration: the transfer property.

The pre-trained policy only transfers onto the discrete-event substrate
if the fast environment produces *states on the same scale* as the DES.
These tests run the same collocation in both worlds and compare the
feature statistics the policy actually consumes.
"""

import numpy as np
import pytest

from repro.config import CLUSTER_ALPHAS, RLConfig, SSDConfig
from repro.core.fast_env import FastFleetEnv, FastVssdSpec
from repro.core.monitor import VssdMonitor
from repro.sched.request import Priority
from repro.virt import StorageVirtualizer
from repro.workloads import WorkloadModel, get_spec, make_driver


@pytest.fixture(scope="module")
def des_windows():
    """Window stats from a DES run: vdi-web + batchanalytics, HW-isolated.

    vdi-web is the anchor workload the fast env's latency demand is
    calibrated to (see FastFleetEnv._demand_mbps).
    """
    # The fast env is calibrated for the default 4-chip channel pipeline;
    # only capacity is scaled down here (fewer blocks) for test speed.
    config = SSDConfig(
        num_channels=8, chips_per_channel=4, blocks_per_chip=32, pages_per_block=32
    )
    virt = StorageVirtualizer(config=config)
    monitors = {}
    rng = np.random.default_rng(0)
    for name, channels in (("vdi-web", [0, 1, 2, 3]), ("batchanalytics", [4, 5, 6, 7])):
        vssd = virt.create_vssd(name, channels, slo_latency_us=1500.0)
        pages = sum(vssd.ftl._own_blocks_per_channel.values()) * config.pages_per_block
        vssd.ftl.warm_fill(range(int(pages * 0.5)))
        model = WorkloadModel(get_spec(name), rng, int(pages * 0.4))
        driver = make_driver(model, vssd.vssd_id, virt.sim, virt.dispatcher.submit, config.page_size)
        virt.dispatcher.add_completion_callback(
            lambda r, d=driver, vid=vssd.vssd_id: d.on_complete(r) if r.vssd_id == vid else None
        )
        monitor = VssdMonitor(vssd)
        virt.dispatcher.add_completion_callback(monitor.on_complete, vssd_id=vssd.vssd_id)
        monitors[name] = (vssd, monitor)
        driver.start()
    windows = {name: [] for name in monitors}
    for t in np.arange(2.0, 12.1, 2.0):
        virt.sim.run_until_seconds(float(t))
        for name, (vssd, monitor) in monitors.items():
            windows[name].append(monitor.snapshot_window(float(t)))
    guar = {
        name: vssd.num_channels * config.channel_write_bandwidth_mbps
        for name, (vssd, _monitor) in monitors.items()
    }
    return windows, guar


@pytest.fixture(scope="module")
def fast_windows():
    """Window stats from the fast env: same collocation, no actions."""
    config = SSDConfig(num_channels=8)
    specs = [
        FastVssdSpec(get_spec("vdi-web"), channels=4, alpha=CLUSTER_ALPHAS["LC-1"]),
        FastVssdSpec(get_spec("batchanalytics"), channels=4, alpha=0.0),
    ]
    env = FastFleetEnv(specs, RLConfig(), config, np.random.default_rng(1), episode_windows=10)
    env.offered[:] = 0
    env.harvested[:] = 0
    env.priority = [Priority.MEDIUM] * 2
    noop = next(
        i for i in range(len(env.action_space))
        if env.action_space.describe(i) == "Set_Priority(MEDIUM)"
    )
    windows = {"vdi-web": [], "batchanalytics": []}
    env._states(env._simulate_window())
    for _ in range(6):
        _s, _r, _d, info = env.step({0: noop, 1: noop})
        windows["vdi-web"].append(info["stats"][0])
        windows["batchanalytics"].append(info["stats"][1])
    guar = {name: 4 * config.channel_write_bandwidth_mbps for name in windows}
    return windows, guar


def _mean_bw_over_guar(windows, guar, name):
    return float(np.mean([w.avg_bw_mbps for w in windows[name]])) / guar[name]


def test_bandwidth_feature_scales_match(des_windows, fast_windows):
    """bw/guar — the policy's first feature — matches within ~2.5x for
    both tenant types (same order of magnitude, same ordering)."""
    for name in ("vdi-web", "batchanalytics"):
        des = _mean_bw_over_guar(*des_windows, name)
        fast = _mean_bw_over_guar(*fast_windows, name)
        assert 0.4 < fast / des < 2.5, (name, des, fast)
    # And BI clearly exceeds LC in both worlds.
    for windows, guar in (des_windows, fast_windows):
        assert _mean_bw_over_guar(windows, guar, "batchanalytics") > \
            _mean_bw_over_guar(windows, guar, "vdi-web")


def test_queue_delay_ordering_matches(des_windows, fast_windows):
    """Closed-loop tenants show orders-of-magnitude larger queue delay
    than open-loop tenants in both environments."""
    for windows, _guar in (des_windows, fast_windows):
        lc = np.mean([w.queue_delay_us for w in windows["vdi-web"]])
        bi = np.mean([w.queue_delay_us for w in windows["batchanalytics"]])
        assert bi > 5 * lc, (lc, bi)


def test_queue_delay_scale_overlaps(des_windows, fast_windows):
    """BI queue delay: both worlds in the same decade (tens of ms)."""
    des = np.mean([w.queue_delay_us for w in des_windows[0]["batchanalytics"]])
    fast = np.mean([w.queue_delay_us for w in fast_windows[0]["batchanalytics"]])
    assert 0.1 < fast / des < 10.0, (des, fast)


def test_rw_ratio_matches(des_windows, fast_windows):
    for name in ("vdi-web", "batchanalytics"):
        des = np.mean([w.rw_ratio for w in des_windows[0][name]])
        fast = np.mean([w.rw_ratio for w in fast_windows[0][name]])
        assert abs(des - fast) < 0.15, (name, des, fast)
