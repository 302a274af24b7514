"""The keyed-file rule (``repro.cache``): no reader ever sees a torn file.

Every artifact cached under ``REPRO_CACHE_DIR`` (pre-trained net,
classifier, tiny protagonist) is written through ``atomic_replace`` and
read through ``load_or_miss``; these tests pin the two safety properties
the rule exists for, independent of any one artifact.
"""

import multiprocessing
from pathlib import Path

import numpy as np

from repro.cache import atomic_replace, load_or_miss


def _hammer_atomic_replace(path_str: str, fill: int, rounds: int) -> None:
    """Child body: repeatedly replace ``path`` with a ``fill``-valued npz."""
    path = Path(path_str)
    payload = np.full(60_000, fill, dtype=np.int64)
    for _ in range(rounds):
        atomic_replace(lambda tmp: np.savez(tmp, payload=payload), path)


def test_atomic_replace_race_never_tears(tmp_path):
    """Two processes racing ``atomic_replace`` on the same path: every
    read — concurrent or final — decodes a complete file written
    entirely by one of them, and no tmp litter survives.

    The pid-suffixed tmp names keep the writers off each other's
    scratch files, and ``os.replace`` swaps whole inodes, so a reader
    can never observe a half-written file.
    """
    path = tmp_path / "artifact_deadbeef0123.npz"
    rounds = 60
    ctx = multiprocessing.get_context("fork")
    writers = [
        ctx.Process(
            target=_hammer_atomic_replace, args=(str(path), fill, rounds)
        )
        for fill in (1, 2)
    ]
    for proc in writers:
        proc.start()
    try:
        while any(proc.is_alive() for proc in writers):
            if not path.exists():
                continue  # raced the very first replace
            with np.load(path, allow_pickle=False) as data:
                payload = data["payload"]
            assert payload.shape == (60_000,)
            values = np.unique(payload)
            assert len(values) == 1 and int(values[0]) in (1, 2), values
    finally:
        for proc in writers:
            proc.join(timeout=120)
    assert [proc.exitcode for proc in writers] == [0, 0]
    with np.load(path, allow_pickle=False) as data:
        values = np.unique(data["payload"])
    assert len(values) == 1 and int(values[0]) in (1, 2)
    assert list(tmp_path.glob(".*.tmp*")) == []


def _load_payload(path: Path) -> np.ndarray:
    with np.load(path, allow_pickle=False) as data:
        return data["payload"]


def test_load_or_miss_treats_a_torn_file_as_a_miss(tmp_path):
    """Missing, garbage and truncated files all read as ``None`` — a
    miss, not a crash — and the rebuilt file replaces the torn one."""
    path = tmp_path / "artifact_feedface4242.npz"
    assert load_or_miss(path, _load_payload) is None  # missing
    path.write_bytes(b"PK\x03\x04 definitely not a complete zip")
    assert load_or_miss(path, _load_payload) is None  # garbage
    payload = np.arange(60_000, dtype=np.int64)
    atomic_replace(lambda tmp: np.savez(tmp, payload=payload), path)
    whole = path.read_bytes()
    assert np.array_equal(load_or_miss(path, _load_payload), payload)
    path.write_bytes(whole[: len(whole) // 2])
    assert load_or_miss(path, _load_payload) is None  # truncated
    atomic_replace(lambda tmp: np.savez(tmp, payload=payload), path)
    assert np.array_equal(load_or_miss(path, _load_payload), payload)
