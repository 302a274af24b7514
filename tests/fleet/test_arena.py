"""Shared-memory arena: roundtrip fidelity and defensive attachment.

The arena may only exist because it provably changes nothing: a snapshot
decoded from a segment must equal the captured one, installing it must
make a build at any seed hit it and come out as a cold build would, and
*any* defect — missing segment, bad magic, truncated or garbage meta, a
key mismatch — must leave the snapshot store untouched, never crash a
worker or leak a segment.
"""

import dataclasses
import json
import struct

import numpy as np
import pytest

from repro.config import SSDConfig
from repro.fleet.arena import (
    ArenaManifest,
    SharedArena,
    attach_arena,
    create_segment,
    decode_snapshot_entries,
    encode_snapshot_entries,
    install_manifest,
    leaked_segments,
    new_segment_name,
    tracked_unlink,
)
from repro.harness import snapshots
from repro.harness.experiment import Experiment
from repro.parallel.matrix import plans_for
from tests.harness.test_snapshots import (
    _assert_fingerprints_equal,
    _state_fingerprint,
)

FAST = SSDConfig(
    num_channels=4,
    chips_per_channel=2,
    blocks_per_chip=16,
    pages_per_block=32,
    min_superblock_blocks=4,
)


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch, tmp_path):
    snapshots.clear_memory_cache()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_SNAPSHOTS", raising=False)
    yield
    snapshots.clear_memory_cache()


def _probe(seed=7):
    return Experiment(
        plans_for(("ycsb", "terasort")), "hardware", ssd_config=FAST, seed=seed
    )


@pytest.fixture(scope="module")
def captured():
    """One built probe's snapshot + its (seed-free) warm cache key."""
    exp = _probe().build()
    snap = snapshots.capture_experiment(exp)
    assert snap is not None
    key = snapshots.warm_cache_key(exp, exp._plan_allocation())
    return snap, key


def test_arena_roundtrip_matches_capture(captured):
    snap, key = captured
    arena = SharedArena(key, snap)
    try:
        assert arena.manifest.columns_key == key
        assert arena.manifest.payload_nbytes > 0
        decoded = attach_arena(arena.manifest)
        assert decoded is not None
        assert decoded["engine"] == snap["engine"]
        assert decoded["arrays"] == snap["arrays"]
        assert decoded["ftls"] == snap["ftls"]
        store, ref = decoded["store"], snap["store"]
        assert np.array_equal(store["page_lpns"], ref["page_lpns"])
        assert np.array_equal(store["erase_count"], ref["erase_count"])
        # Zero-copy views must be read-only: restore copies *out*.
        assert not store["page_lpns"].flags.writeable
        for name in ("state", "owner", "writer", "harvested", "write_ptr",
                     "valid_count"):
            assert store[name] == ref[name], name
    finally:
        arena.unlink()
    assert leaked_segments() == []


def test_codec_roundtrip_restores_a_cold_builds_state(captured, monkeypatch):
    """The wire format without the segment: ``decode(encode(snap))``,
    meta through JSON as a segment carries it (int dict keys come back
    as strings), restores to exactly the state of a cold build."""
    snap, key = captured
    entries, meta = encode_snapshot_entries(snap)
    decoded = decode_snapshot_entries(
        entries.__getitem__, json.loads(json.dumps(meta)), copy=True
    )
    assert decoded["store"]["page_lpns"] is not snap["store"]["page_lpns"]
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_SNAPSHOTS", "off")
        cold = _probe(seed=9).build()
    snapshots.install(key, decoded)
    snapshots.reset_stats()
    restored = _probe(seed=9).build()
    assert snapshots.STATS == {"hits": 1, "misses": 0, "stores": 0}
    _assert_fingerprints_equal(
        _state_fingerprint(cold), _state_fingerprint(restored)
    )


def test_install_manifest_registers_with_snapshot_layer(captured, monkeypatch):
    """The arena fills the one store under the one key: after
    ``install_manifest`` a build at a seed other than the probe's is a
    plain snapshot hit, and its state is a cold build's."""
    snap, key = captured
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_SNAPSHOTS", "off")
        cold = _probe(seed=9).build()
    arena = SharedArena(key, snap)
    try:
        assert snapshots._MEMORY_CACHE == {}
        snapshots.reset_stats()
        assert install_manifest(arena.manifest)
        restored = _probe(seed=9).build()
        assert snapshots.STATS == {"hits": 1, "misses": 0, "stores": 0}
        _assert_fingerprints_equal(
            _state_fingerprint(cold), _state_fingerprint(restored)
        )
    finally:
        arena.unlink()
    assert leaked_segments() == []


def test_unlink_is_idempotent(captured):
    snap, key = captured
    arena = SharedArena(key, snap)
    arena.unlink()
    arena.unlink()
    assert leaked_segments() == []


# ---------------------------------------------------------------------
# Corrupt-segment degradation: attach returns None, never raises
# ---------------------------------------------------------------------
def _manifest(name, key="feedface4242", size=4096):
    return ArenaManifest(
        name=name, size=size, columns_key=key, payload_nbytes=size
    )


def test_attach_missing_segment_degrades():
    assert attach_arena(_manifest("repro_arena_gone_0")) is None


@pytest.mark.parametrize(
    "corruption",
    ["bad_magic", "huge_meta_len", "zero_meta_len", "garbage_meta_json"],
)
def test_attach_corrupt_segment_degrades(corruption):
    """Every corruption mode degrades to None + nothing installed."""
    shm = create_segment(new_segment_name("arena"), 4096)
    try:
        if corruption == "bad_magic":
            shm.buf[:8] = b"NOTMAGIC"
        else:
            shm.buf[:8] = b"RARENA01"
            if corruption == "huge_meta_len":
                struct.pack_into("<Q", shm.buf, 8, 1 << 40)
            elif corruption == "zero_meta_len":
                struct.pack_into("<Q", shm.buf, 8, 0)
            elif corruption == "garbage_meta_json":
                blob = b"{definitely not json"
                struct.pack_into("<Q", shm.buf, 8, len(blob))
                shm.buf[16 : 16 + len(blob)] = blob
        manifest = _manifest(shm.name)
        assert attach_arena(manifest) is None
        assert not install_manifest(manifest)
        assert snapshots._MEMORY_CACHE == {}
    finally:
        shm.close()
        tracked_unlink(shm)
    assert leaked_segments() == []


def test_attach_wrong_columns_key_degrades(captured):
    """A stale manifest (key from another config) must not serve data."""
    snap, key = captured
    arena = SharedArena(key, snap)
    try:
        stale = dataclasses.replace(arena.manifest, columns_key="0" * 12)
        assert attach_arena(stale) is None
        assert not install_manifest(stale)
        assert snapshots._MEMORY_CACHE == {}
    finally:
        arena.unlink()


def test_attach_out_of_bounds_layout_degrades():
    """A layout table pointing past the segment end is rejected."""
    blob = json.dumps(
        {
            "meta": {"version": 1, "plan_names": []},
            "layout": {
                "page_lpns": {
                    "dtype": "<i4",
                    "shape": [1 << 20],
                    "offset": 0,
                }
            },
            "columns_key": "feedface4242",
        }
    ).encode("utf-8")
    shm = create_segment(new_segment_name("arena"), 4096)
    try:
        shm.buf[:8] = b"RARENA01"
        struct.pack_into("<Q", shm.buf, 8, len(blob))
        shm.buf[16 : 16 + len(blob)] = blob
        assert attach_arena(_manifest(shm.name)) is None
    finally:
        shm.close()
        tracked_unlink(shm)
