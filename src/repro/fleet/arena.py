"""The shared-memory warm-state arena.

One arena segment holds one warm snapshot's numpy columns — the
page→LPN matrix, erase counts, encoded BlockStore columns, and per-plan
L2P tables — plus a JSON meta block (engine clock, ChannelArrays
horizons, FTL region state).  It is a transport, not a store: a shard
worker attaches the segment and installs the decoded zero-copy views
into the one in-process snapshot store
(:func:`repro.harness.snapshots.install`) under the one
:func:`~repro.harness.snapshots.warm_cache_key`.  That key has no seed
in it, so the one entry serves every device of a homogeneous fleet
regardless of per-device seeds, through the same ``cache_get`` every
other build uses.

Lifecycle: the parent (the fleet runner) creates and — always — unlinks
the segment; workers only ever attach.  A worker crash or watchdog kill
therefore cannot leak a segment: the parent's ``finally`` (with an
``atexit`` backstop for harder exits) unlinks regardless of how the
shard workers died.  Attaching is defensive end to end — a bad magic,
truncated meta, or malformed layout makes :func:`attach_arena` return
``None`` and the worker's store stays as it was (a miss, then a cold
build+warm, at worst).

Segment layout::

    [ 8B magic "RARENA01" ][ 8B little-endian meta length ][ meta JSON ]
    [ pad to 64B ][ arrays back to back, each 64B-aligned ]

The meta JSON carries the snapshot's structured-but-small state (the
``meta`` half of :func:`encode_snapshot_entries`, with its format
``version``) plus a layout table mapping array names to (dtype, shape,
offset).  The column codec lives here because the segment is its only
user: the wire format is a fact this one module knows.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import struct
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Optional

import numpy as np

from repro.harness import snapshots
from repro.profiling import PROFILER
from repro.ssd.blockstate import BlockState

_MAGIC = b"RARENA01"
_ALIGN = 64
#: Name prefixes of every segment this package creates (the leak check
#: in tests and CI scans /dev/shm for these).
SEGMENT_PREFIXES = ("repro_arena_",)

_SERIAL = itertools.count()

#: ``BlockState`` column encoding in the segment (int8 index).
_BLOCK_STATES = tuple(BlockState)
_BLOCK_STATE_INDEX = {state: i for i, state in enumerate(_BLOCK_STATES)}
#: ``None`` sentinel for Optional[int] columns (owner/writer).  Real
#: values are small non-negative ids plus the -1 placeholder vSSD, so
#: int32-min can never collide.
_NONE = int(np.iinfo(np.int32).min)


def new_segment_name(kind: str) -> str:
    """A collision-safe segment name: pid + an in-process serial."""
    return f"repro_{kind}_{os.getpid()}_{next(_SERIAL)}"


def create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create a named segment, evicting a stale same-name leftover.

    A same-name segment can only pre-exist if an earlier process with
    the same pid died without its parent-side unlink running (e.g.
    SIGKILL before atexit); reclaiming it is strictly cleanup.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=True, size=size)
    except FileExistsError:
        stale = shared_memory.SharedMemory(name=name)
        stale.close()
        tracked_unlink(stale)
        return shared_memory.SharedMemory(name=name, create=True, size=size)


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Only the creating parent may unlink; an attaching worker must not
    register the segment with its own ``resource_tracker``, or the
    tracker unlinks it when the worker exits (and warns about a "leak"
    it caused itself).  Python 3.13 has ``track=False`` for exactly
    this; older interpreters need the post-attach unregister dance.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        pass
    shm = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    return shm


def tracked_unlink(shm: shared_memory.SharedMemory) -> None:
    """Unlink a segment, first re-registering it with the tracker.

    Pre-3.13 interpreters give an attaching worker no ``track=False``,
    so :func:`attach_segment` unregisters after attach — but under fork
    the tracker process is *shared*, so that unregister also removes the
    owner's entry and the owner's unlink-time unregister would make the
    tracker print a spurious ``KeyError``.  The tracker cache is a set:
    re-adding the entry immediately before unlink balances the books in
    every interpreter/start-method combination.
    """
    try:
        resource_tracker.register(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    shm.unlink()


def leaked_segments(shm_dir: str = "/dev/shm") -> list:
    """Names of repro-owned segments still present on the host."""
    root = Path(shm_dir)
    if not root.is_dir():  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(
        entry.name
        for entry in root.iterdir()
        if entry.name.startswith(SEGMENT_PREFIXES)
    )


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

    ``get(name)`` returns the named array (an arena view, or a plain
    dict lookup in tests).  With ``copy=False`` the big matrices
    (``page_lpns``, ``erase_count``) are passed through as-is — the
    zero-copy arena path, safe because
    :func:`~repro.harness.snapshots.restore_experiment` only ever copies
    *out* of a snapshot.  Small columns always decode to plain Python lists
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


def _encode_optional(column: list) -> np.ndarray:
    """Optional[int] list -> int32 array with an int32-min None mark."""
    return np.array(
        [_NONE if value is None else value for value in column], dtype=np.int32
    )


def _decode_optional(array: np.ndarray) -> list:
    """Inverse of :func:`_encode_optional`."""
    return [None if value == _NONE else int(value) for value in array]


@dataclass(frozen=True)
class ArenaManifest:
    """Everything a worker needs to attach: rides inside the shard cell."""

    name: str
    size: int
    columns_key: str
    #: Total bytes of the array payload in the segment.
    payload_nbytes: int


class SharedArena:
    """Parent-side owner of one warm-snapshot segment.

    Create with the snapshot to publish, hand
    :attr:`manifest` to the shard cells, and call :meth:`unlink` in a
    ``finally`` when the fleet run ends.  ``unlink`` is idempotent and
    registered with ``atexit`` as a backstop, so even an exception path
    that skips the ``finally`` cannot leak the segment.
    """

    def __init__(self, columns_key: str, snap: dict) -> None:
        entries, meta = encode_snapshot_entries(snap)
        layout = {}
        offset = 0  # relative to the payload base (after header+meta)
        arrays = {}
        for name in sorted(entries):
            array = np.ascontiguousarray(entries[name])
            offset = _align(offset)
            layout[name] = {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
            arrays[name] = (array, offset)
            offset += array.nbytes
        payload_nbytes = offset
        meta_blob = json.dumps(
            {"meta": meta, "layout": layout, "columns_key": columns_key}
        ).encode("utf-8")
        base = _align(len(_MAGIC) + 8 + len(meta_blob))
        size = base + max(payload_nbytes, 1)
        self._shm: Optional[shared_memory.SharedMemory] = create_segment(
            new_segment_name("arena"), size
        )
        buf = self._shm.buf
        buf[: len(_MAGIC)] = _MAGIC
        struct.pack_into("<Q", buf, len(_MAGIC), len(meta_blob))
        buf[len(_MAGIC) + 8 : len(_MAGIC) + 8 + len(meta_blob)] = meta_blob
        for name, (array, rel_offset) in arrays.items():
            view = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=buf,
                offset=base + rel_offset,
            )
            view[...] = array
        self.manifest = ArenaManifest(
            name=self._shm.name,
            size=size,
            columns_key=columns_key,
            payload_nbytes=payload_nbytes,
        )
        self._unlinked = False
        atexit.register(self.unlink)

    def unlink(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._unlinked or self._shm is None:
            return
        self._unlinked = True
        self._shm.close()
        try:
            tracked_unlink(self._shm)
        except FileNotFoundError:  # pragma: no cover - raced an evictor
            pass
        self._shm = None
        atexit.unregister(self.unlink)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


#: Worker-side registry of attached segments: keeps the SharedMemory
#: handles (and therefore the numpy views into them) alive for the
#: worker's lifetime.  One attach per segment per process, however many
#: shard cells the pool routes here.
_ATTACHED: dict = {}


def attach_arena(manifest: ArenaManifest) -> Optional[dict]:
    """Attach a segment and decode its snapshot; ``None`` on any defect.

    The decoded snapshot's big matrices are read-only views into the
    shared segment (restore copies *out* of them), small columns are
    plain Python lists.  Defensive by design: any validation or decode
    failure degrades to ``None`` — a corrupt arena can cost time, never
    correctness.
    """
    cached = _ATTACHED.get(manifest.name)
    if cached is not None:
        return cached[1]
    shm: Optional[shared_memory.SharedMemory] = None
    try:
        shm = attach_segment(manifest.name)
        snap = _decode_segment(shm, manifest)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, struct.error):
        _close_quietly(shm)
        return None
    if snap is None:
        _close_quietly(shm)
        return None
    _ATTACHED[manifest.name] = (shm, snap)
    PROFILER.count("arena.attach")
    return snap


def _close_quietly(shm: Optional[shared_memory.SharedMemory]) -> None:
    """Close an attach handle, tolerating lingering buffer exports.

    A decode that failed halfway may still hold numpy views in the
    in-flight exception's frames; ``mmap`` refuses to unmap under them
    (BufferError).  Dropping the handle is safe either way — workers
    never own the segment, so nothing leaks.
    """
    if shm is None:
        return
    try:
        shm.close()
    except BufferError:  # pragma: no cover - depends on GC timing
        pass


def _decode_segment(
    shm: shared_memory.SharedMemory, manifest: ArenaManifest
) -> Optional[dict]:
    buf = shm.buf
    if len(buf) < len(_MAGIC) + 8 or bytes(buf[: len(_MAGIC)]) != _MAGIC:
        return None
    (meta_len,) = struct.unpack_from("<Q", buf, len(_MAGIC))
    header_end = len(_MAGIC) + 8 + meta_len
    if meta_len == 0 or header_end > len(buf):
        return None
    blob = json.loads(bytes(buf[len(_MAGIC) + 8 : header_end]).decode("utf-8"))
    if blob.get("columns_key") != manifest.columns_key:
        return None
    meta = blob["meta"]
    if meta.get("version") != 1:
        return None
    layout = blob["layout"]
    base = _align(header_end)

    def get(name: str) -> np.ndarray:
        entry = layout[name]
        shape = tuple(entry["shape"])
        dtype = np.dtype(entry["dtype"])
        offset = base + entry["offset"]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if offset + count * dtype.itemsize > len(buf):
            raise ValueError(f"arena array {name} exceeds segment bounds")
        view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        view.flags.writeable = False
        return view

    return decode_snapshot_entries(get, meta, copy=False)


def install_manifest(manifest: ArenaManifest) -> bool:
    """Attach ``manifest`` and put its snapshot in the snapshot store.

    Returns True when devices in this process will hit the installed
    entry; False means graceful degradation (whatever the store already
    held, or a cold build+warm).
    """
    snap = attach_arena(manifest)
    if snap is None:
        return False
    snapshots.install(manifest.columns_key, snap)
    return True
