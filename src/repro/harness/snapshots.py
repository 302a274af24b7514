"""Warm-state snapshot cache: amortize device build+warm across runs.

Every experiment constructs the device and warm-fills each vSSD to
:data:`~repro.harness.experiment.WARM_FRACTION` occupancy before its first
measured window, and the high-volume consumers (``repro sweep``,
adversarial candidate evaluation, ``pretrain_best`` seed fan-out) repeat a
near-identical warm phase for every cell.  What that costs, from a traced
round of the ``sweep_cold_build`` benchmark workload (8 one-second cells on
the full-size device, 2 cache misses and 6 hits): the 4 ``warm_fill``
calls of the 2 cold builds take 0.03 s (72 089 pages each, ~8 ms; they
took 31% of the round while the fill placed one page per loop
iteration), device construction 0.11 s for all 8 builds, the 2 captures
0.002 s and the 6 restores 0.009 s.  This module captures the post-warm
simulator state — BlockStore/ChannelArrays columns, per-vSSD FTL state
and the engine clock — as cheap numpy copies plus plain lists, and
restores it into a freshly constructed (but unwarmed) experiment so the
restored run is bit-identical to a cold build+warm run.

The warm fill draws no randomness and schedules nothing
(``tests/harness/test_warm_contract.py``), so the warm state is a
function of the device config, the plans and the allocation — not of
the seed.  A snapshot therefore holds no RNG state: a freshly built
experiment's streams already sit where a cold build+warm leaves them.
:func:`capture_experiment` checks exactly that and declines to cache a
build that broke it.

The cache is on or off, by the ``REPRO_SNAPSHOTS`` environment variable
(:func:`snapshots_enabled`, parsed by :func:`repro.flags.env_flag`):

* on (``1``/``on``/``yes``/``true``/``mem``; the default when unset) —
  one in-process dict, bounded at 16 entries with the oldest-inserted
  evicted first; hits come from repeated cells inside one process
  (serial sweeps, persistent pool workers) and from the fleet arena's
  pre-fill.
* off (``0``/``off``/``no``/``false``) — every build is a cold
  build+warm (the escape hatch behind ``repro sweep --snapshots off``).

Any other value, the retired ``disk`` included, is a ``ValueError``.
Nothing here touches the filesystem: a ``.npz`` tier saved ~8 ms on a
process's first build per key and cost ~12 ms on every miss (ROADMAP,
"One keyed store", fact (f)).

Keys cover everything that shapes the warm state: the full SSD config,
the warm fraction, the pretraining ``SAMPLER_VERSION``, and each plan's
derived warm spec (workload, name, channel allocation, isolation,
blocks-per-channel).  The root seed is absent; a seeded allocator
(``ssdkeeper``) reaches the key through the hashed channels.  Policies
that derive identical allocations (hardware/adaptive/fleetio over the
same plans, at any seed) share one snapshot, and the fleet's
shared-memory arena (``repro.fleet.arena``) is a transport that fills
this same store under this same key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cache import config_hash
from repro.flags import env_flag
from repro.profiling import PROFILER
from repro.sim.random import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.experiment import Experiment

#: Module-level hit/miss counters, readable even when profiling is off
#: (the adversarial smoke test asserts hits > 0 without a profiler).
STATS = {"hits": 0, "misses": 0, "stores": 0}

#: In-process snapshot store.  Entries are fully detached copies (every
#: restore copies *out* of them), so one entry serves many experiments.
_MEMORY_CACHE: dict = {}
#: Bound on distinct warm states held in memory: one entry per distinct
#: (config, plans, allocation).  Past the bound the
#: oldest-inserted entry goes (insertion order: a hit does not refresh it).
_MEMORY_CACHE_MAX = 16


def snapshots_enabled() -> bool:
    """Whether ``REPRO_SNAPSHOTS`` leaves the warm-state cache on (unset:
    on; an unrecognised value raises, see :func:`repro.flags.env_flag`)."""
    return env_flag("REPRO_SNAPSHOTS", default=True)


def reset_stats() -> None:
    """Zero the hit/miss counters (per-measurement bookkeeping)."""
    for name in STATS:
        STATS[name] = 0


def _bump(name: str) -> None:
    """Count a cache event in both the local STATS and the profiler.

    STATS is deliberately per-process observability (smoke tests read it
    without enabling profiling); the PROFILER counter is the channel that
    crosses process boundaries via each cell's absorbed profile delta.
    """
    STATS[name] += 1
    PROFILER.count(f"snapshot.{name}")


def clear_memory_cache() -> None:
    """Drop every in-process snapshot (tests and cache-pressure relief)."""
    _MEMORY_CACHE.clear()


# ---------------------------------------------------------------------
# Cache key
# ---------------------------------------------------------------------
def warm_cache_key(experiment: "Experiment", allocation: list) -> str:
    """Hash everything that shapes the post-warm state.

    The *policy* and the *seed* are deliberately absent.  Two policies
    that derive the same allocation and isolation warm identically, and
    the manager/controller built after the warm never feeds back into
    it.  The warm fill writes deterministic sequential LPNs and draws no
    randomness, so every seed produces the same post-warm columns; a
    seeded allocator (ssdkeeper) folds the seed into ``allocation``,
    which is hashed through the per-plan channels.
    """
    from dataclasses import asdict

    from repro.core.pretrain import SAMPLER_VERSION
    from repro.harness.experiment import WARM_FRACTION

    return config_hash(
        {
            "config": asdict(experiment.config),
            "warm_fraction": WARM_FRACTION,
            "sampler_version": SAMPLER_VERSION,
            "plans": [
                {
                    "workload": plan.workload,
                    "name": plan.name,
                    "channels": list(channels),
                    "isolation": isolation,
                    "blocks_per_channel": blocks_per_channel,
                }
                for plan, channels, isolation, blocks_per_channel in (
                    experiment._vssd_specs(allocation)
                )
            ],
        }
    )


# ---------------------------------------------------------------------
# Capture / restore
# ---------------------------------------------------------------------
def capture_experiment(experiment: "Experiment") -> Optional[dict]:
    """Snapshot a just-built, just-warmed experiment; None if unsafe.

    Unsafe means the build deviated from the plain warm contract — a
    pending engine event (callbacks cannot be copied), an attached
    harvest region (blocks shared with the gSB manager), or a random
    stream that is no longer at its seed-derived initial state (the
    snapshot holds no RNG state, so a warm that drew could not be
    restored).  None can happen in the stock build path; returning None
    instead of raising keeps exotic future builds correct-but-uncached.
    """
    virt = experiment.virt
    fresh = RandomStreams(experiment.seed)
    if any(
        state != fresh.get(name).bit_generator.state
        for name, state in experiment.streams.detsan_states().items()
    ):
        return None
    try:
        engine = virt.sim.snapshot()
        ftls = {
            plan.name: virt.vssd_by_name(plan.name).ftl.snapshot()
            for plan in experiment.plans
        }
    except ValueError:
        return None
    return {
        "engine": engine,
        "store": virt.ssd.store.snapshot(),
        "arrays": virt.ssd.arrays.snapshot(),
        "ftls": ftls,
    }


def restore_experiment(experiment: "Experiment", snap: dict) -> None:
    """Overlay a warm snapshot onto a freshly built, unwarmed experiment.

    Everything restores in place (hot loops hoist references to the SoA
    columns) and the restore only reads from ``snap``, so one cached
    snapshot can be restored into any number of experiments, at any
    seed: the RNG is not part of the warm state (see
    :func:`capture_experiment`).
    """
    virt = experiment.virt
    virt.sim.restore(snap["engine"])
    virt.ssd.store.restore(snap["store"])
    virt.ssd.arrays.restore(snap["arrays"])
    for plan in experiment.plans:
        virt.vssd_by_name(plan.name).ftl.restore(snap["ftls"][plan.name])


# ---------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------
def cache_get(key: str) -> Optional[dict]:
    """Look up a warm snapshot by key."""
    snap = _MEMORY_CACHE.get(key)
    _bump("hits" if snap is not None else "misses")
    return snap


def cache_put(key: str, snap: dict) -> None:
    """Store a just-captured warm snapshot."""
    install(key, snap)
    _bump("stores")


def install(key: str, snap: dict) -> None:
    """Put ``snap`` in the bounded store without counting a ``stores``
    event (the fleet arena's pre-fill: nothing was captured)."""
    # Pool workers fill and evict their fork-private copy of the store;
    # its contents are deterministic per key, so nothing merges back.
    if key not in _MEMORY_CACHE and len(_MEMORY_CACHE) >= _MEMORY_CACHE_MAX:
        _MEMORY_CACHE.pop(next(iter(_MEMORY_CACHE)))
    _MEMORY_CACHE[key] = snap
