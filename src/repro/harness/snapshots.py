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

Cache layers, selected by the ``REPRO_SNAPSHOTS`` environment variable:

* ``off`` (or ``0``/``no``/``false``) — disabled (the escape hatch
  behind ``repro sweep --snapshots off``).
* ``mem`` (or ``on``/``1``/``yes``/``true``; the default when unset) —
  in-process dict only, bounded at 16 entries with the oldest-inserted
  evicted first; hits come from repeated cells inside one process
  (serial sweeps, persistent pool workers).
* ``disk`` — additionally persists ``warmstate_<key>.npz`` beside the
  pretrained policy/classifier caches, so separate processes and later
  invocations skip the warm too.  Opt-in so test runs never write
  cache files as a side effect.

Any other value is a ``ValueError`` (:func:`snapshots_mode`), not a
silent ``mem``.

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

import json
import os
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.cache import atomic_replace, cache_dir, config_hash, load_or_miss
from repro.profiling import PROFILER
from repro.sim.random import RandomStreams
from repro.ssd.blockstate import BlockState

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path

    from repro.harness.experiment import Experiment

PROFILER.declare("snapshot.save", "snapshot.restore")

#: Module-level hit/miss counters, readable even when profiling is off
#: (the adversarial smoke test asserts hits > 0 without a profiler).
STATS = {"hits": 0, "misses": 0, "disk_hits": 0, "stores": 0}

#: In-process snapshot store.  Entries are fully detached copies (every
#: restore copies *out* of them), so one entry serves many experiments.
_MEMORY_CACHE: dict = {}
#: Bound on distinct warm states held in memory: one entry per distinct
#: (config, plans, allocation).  Past the bound the
#: oldest-inserted entry goes (insertion order: a hit does not refresh it).
_MEMORY_CACHE_MAX = 16

#: ``BlockState`` column encoding for the on-disk layer (int8 index).
_BLOCK_STATES = tuple(BlockState)
_BLOCK_STATE_INDEX = {state: i for i, state in enumerate(_BLOCK_STATES)}
#: ``None`` sentinel for Optional[int] columns (owner/writer).  Real
#: values are small non-negative ids plus the -1 placeholder vSSD, so
#: int32-min can never collide.
_NONE = int(np.iinfo(np.int32).min)


#: Accepted ``REPRO_SNAPSHOTS`` spellings (case-insensitive) per mode.
_MODE_SPELLINGS = {
    "off": ("off", "0", "no", "false"),
    "mem": ("mem", "on", "1", "yes", "true"),
    "disk": ("disk",),
}


def snapshots_mode() -> str:
    """Resolve ``REPRO_SNAPSHOTS`` to ``off``, ``mem``, or ``disk``.

    Unset means ``mem``.  Anything else unrecognised raises: a typo such
    as ``dsik`` must not silently run without the disk layer.
    """
    value = os.environ.get("REPRO_SNAPSHOTS", "mem").strip().lower()
    for mode, spellings in _MODE_SPELLINGS.items():
        if value in spellings:
            return mode
    accepted = ", ".join("|".join(spellings) for spellings in _MODE_SPELLINGS.values())
    raise ValueError(f"REPRO_SNAPSHOTS={value!r} is not one of {accepted}")


def reset_stats() -> None:
    """Zero the hit/miss counters (per-measurement bookkeeping)."""
    for name in STATS:
        STATS[name] = 0  # fleetlint: disable=parallel-shared-mutation  test/bench bookkeeping reset, never called from a worker


def _bump(name: str) -> None:
    """Count a cache event in both the local STATS and the profiler.

    STATS is deliberately per-process observability (smoke tests read it
    without enabling profiling); the PROFILER counter is the channel that
    crosses process boundaries via each cell's absorbed profile delta.
    """
    STATS[name] += 1  # fleetlint: disable=parallel-shared-mutation  per-process observability only; the cross-process channel is the profiler counter absorbed per cell
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
    token = PROFILER.begin()
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
    snap = {
        "engine": engine,
        "store": virt.ssd.store.snapshot(),
        "arrays": virt.ssd.arrays.snapshot(),
        "ftls": ftls,
    }
    PROFILER.end("snapshot.save", token)
    return snap


def restore_experiment(experiment: "Experiment", snap: dict) -> None:
    """Overlay a warm snapshot onto a freshly built, unwarmed experiment.

    Everything restores in place (hot loops hoist references to the SoA
    columns) and the restore only reads from ``snap``, so one cached
    snapshot can be restored into any number of experiments, at any
    seed: the RNG is not part of the warm state (see
    :func:`capture_experiment`).
    """
    token = PROFILER.begin()
    virt = experiment.virt
    virt.sim.restore(snap["engine"])
    virt.ssd.store.restore(snap["store"])
    virt.ssd.arrays.restore(snap["arrays"])
    for plan in experiment.plans:
        virt.vssd_by_name(plan.name).ftl.restore(snap["ftls"][plan.name])
    PROFILER.end("snapshot.restore", token)


# ---------------------------------------------------------------------
# Cache layers
# ---------------------------------------------------------------------
def cache_get(key: str, mode: str) -> Optional[dict]:
    """Look up a warm snapshot by key (memory first, then disk)."""
    snap = _MEMORY_CACHE.get(key)
    if snap is not None:
        _bump("hits")
        return snap
    if mode == "disk":
        snap = load_or_miss(_snapshot_path(key), _decode_npz)
        if snap is not None:
            _memory_put(key, snap)
            _bump("hits")
            _bump("disk_hits")
            return snap
    _bump("misses")
    return None


def cache_put(key: str, snap: dict, mode: str) -> None:
    """Store a warm snapshot in memory (and on disk under ``disk``)."""
    _memory_put(key, snap)
    _bump("stores")
    if mode == "disk":
        # Only a miss gets here, so a file already at the path is one
        # that could not be read back (or a racing writer's identical
        # bytes): replace it.
        atomic_replace(lambda tmp: _encode_npz(snap, tmp), _snapshot_path(key))


def install(key: str, snap: dict) -> None:
    """Pre-fill the in-process store (the fleet arena's zero-copy views):
    no disk write, and not a ``stores`` event — nothing was captured."""
    _memory_put(key, snap)


def _memory_put(key: str, snap: dict) -> None:
    if key not in _MEMORY_CACHE and len(_MEMORY_CACHE) >= _MEMORY_CACHE_MAX:
        _MEMORY_CACHE.pop(next(iter(_MEMORY_CACHE)))  # fleetlint: disable=parallel-shared-mutation  fork-private eviction of the oldest-inserted entry of a deterministic read-through cache; nothing to merge back
    _MEMORY_CACHE[key] = snap  # fleetlint: disable=parallel-shared-mutation  read-through cache keyed by a config hash; pool workers fill their fork-private copy, contents are deterministic per key


def _snapshot_path(key: str) -> "Path":
    return cache_dir() / f"warmstate_{key}.npz"


# ---------------------------------------------------------------------
# Snapshot codec (shared by the .npz disk layer and the shm arena)
# ---------------------------------------------------------------------
def encode_snapshot_entries(snap: dict) -> "tuple[dict, dict]":
    """Split a snapshot into ``(numpy entries, JSON-safe meta dict)``.

    The page->LPN matrix and L2P arrays dominate (one int32 per page);
    they become named arrays.  Everything structured-but-small (engine
    clock, region deque orders, stats) rides in the meta dict.
    """
    store = snap["store"]
    entries = {
        "page_lpns": store["page_lpns"],
        "erase_count": store["erase_count"],
        "state": np.array(
            [_BLOCK_STATE_INDEX[s] for s in store["state"]], dtype=np.int8
        ),
        "owner": _encode_optional(store["owner"]),
        "writer": _encode_optional(store["writer"]),
        "harvested": np.array(store["harvested"], dtype=bool),
        "write_ptr": np.array(store["write_ptr"], dtype=np.int32),
        "valid_count": np.array(store["valid_count"], dtype=np.int32),
    }
    plan_names = sorted(snap["ftls"])
    ftl_meta = {}
    for index, name in enumerate(plan_names):
        ftl = dict(snap["ftls"][name])
        entries[f"l2p_gid_{index}"] = np.array(ftl.pop("l2p_gid"), dtype=np.int32)
        entries[f"l2p_page_{index}"] = np.array(ftl.pop("l2p_page"), dtype=np.int32)
        ftl_meta[name] = ftl
    meta = {
        "version": 1,
        "engine": snap["engine"],
        "arrays": snap["arrays"],
        "ftls": ftl_meta,
        "plan_names": plan_names,
    }
    return entries, meta


def decode_snapshot_entries(get, meta: dict, copy: bool = True) -> dict:
    """Inverse of :func:`encode_snapshot_entries`.

    ``get(name)`` returns the named array (an npz member or an arena
    view).  With ``copy=False`` the big matrices (``page_lpns``,
    ``erase_count``) are passed through as-is — the zero-copy arena
    path, safe because :func:`restore_experiment` only ever copies *out*
    of a snapshot.  Small columns always decode to plain Python lists
    (the live structures hold Python ints, and a numpy scalar leaking
    into them would poison downstream arithmetic).
    """
    store = {
        "page_lpns": get("page_lpns").copy() if copy else get("page_lpns"),
        "erase_count": get("erase_count").copy() if copy else get("erase_count"),
        "state": [_BLOCK_STATES[i] for i in get("state")],
        "owner": _decode_optional(get("owner")),
        "writer": _decode_optional(get("writer")),
        "harvested": get("harvested").tolist(),
        "write_ptr": get("write_ptr").tolist(),
        "valid_count": get("valid_count").tolist(),
    }
    ftls = {}
    for index, name in enumerate(meta["plan_names"]):
        ftl = dict(meta["ftls"][name])
        # JSON stringifies int dict keys; the live dicts use ints.
        ftl["own_blocks_per_channel"] = {
            int(ch): count
            for ch, count in ftl["own_blocks_per_channel"].items()
        }
        region = ftl["own_region"]
        region["free"] = {int(ch): gids for ch, gids in region["free"].items()}
        region["open"] = {int(ch): gids for ch, gids in region["open"].items()}
        ftl["l2p_gid"] = get(f"l2p_gid_{index}").tolist()
        ftl["l2p_page"] = get(f"l2p_page_{index}").tolist()
        ftls[name] = ftl
    return {
        "engine": meta["engine"],
        "store": store,
        "arrays": meta["arrays"],
        "ftls": ftls,
    }


# ---------------------------------------------------------------------
# On-disk encoding (.npz: big columns as arrays, the rest as JSON)
# ---------------------------------------------------------------------
def _encode_npz(snap: dict, path: "Path") -> None:
    """Encode a snapshot as an uncompressed ``.npz``."""
    entries, meta = encode_snapshot_entries(snap)
    entries["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as handle:
        np.savez(handle, **entries)


def _decode_npz(path: "Path") -> dict:
    """Decode ``_encode_npz`` output back into a snapshot dict."""
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"][()]))
        if meta.get("version") != 1:
            raise ValueError(f"unknown warm-state version in {path}")
        return decode_snapshot_entries(lambda name: data[name], meta, copy=True)


def _encode_optional(column: list) -> np.ndarray:
    """Optional[int] list -> int32 array with an int32-min None mark."""
    return np.array(
        [_NONE if value is None else value for value in column], dtype=np.int32
    )


def _decode_optional(array: np.ndarray) -> list:
    """Inverse of :func:`_encode_optional`."""
    return [None if value == _NONE else int(value) for value in array]
