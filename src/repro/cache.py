"""The keyed-file rule for everything cached under ``REPRO_CACHE_DIR``.

An artifact's file name carries a hash of everything that shapes it, so
a config change lands on a new file instead of silently reusing a stale
one.  Writes go to a temp file and are renamed into place, so concurrent
workers racing on a cold cache never observe a half-written file; a file
torn some other way (a partial copy, a full disk) reads as a miss and is
rebuilt and replaced.  Stdlib only: the snapshot layer, the pre-trained
artifacts and the adversarial search all import this module at the top.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import zipfile
from pathlib import Path
from typing import Callable, Hashable, MutableMapping, Optional, TypeVar

_T = TypeVar("_T")


def cache_dir() -> Path:
    """``REPRO_CACHE_DIR``, or ``~/.cache/repro``; created on demand."""
    root = os.environ.get("REPRO_CACHE_DIR")
    path = Path(root) if root else Path.home() / ".cache" / "repro"
    path.mkdir(parents=True, exist_ok=True)
    return path


def config_hash(payload: dict) -> str:
    """A short stable hash over a JSON-serializable config payload."""
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def atomic_replace(write: Callable[[Path], None], final_path: Path) -> None:
    """Write via ``write(tmp_path)`` then atomically rename into place."""
    tmp = final_path.with_name(f".{final_path.name}.{os.getpid()}.tmp{final_path.suffix}")
    try:
        write(tmp)
        os.replace(tmp, final_path)
    finally:
        tmp.unlink(missing_ok=True)


def load_or_miss(path: Path, load: Callable[[Path], _T]) -> Optional[_T]:
    """``load(path)``, or ``None`` if the file is missing, torn or stale.

    The rule for every keyed file under ``REPRO_CACHE_DIR``: one that
    cannot be read back is a miss, and the caller rebuilds the artifact
    and overwrites the file through :func:`atomic_replace`.  A file that
    loads but holds the wrong thing (say, another architecture's weights)
    is not covered, and fails where it is used.
    """
    if not path.exists():
        return None
    try:
        return load(path)
    except (
        OSError,
        EOFError,  # empty file, or a pickle that stops short
        ValueError,  # bad .npy header, unknown format version, bad JSON
        KeyError,  # an entry the current code expects is not in the file
        zipfile.BadZipFile,  # truncated .npz: no central directory
        pickle.UnpicklingError,
    ):
        return None


def read_through(
    memo: MutableMapping[Hashable, _T],
    key: Hashable,
    path: Optional[Path],
    load: Callable[[Path], _T],
    build: Callable[[], _T],
    save: Callable[[_T, Path], None],
    count: Optional[Callable[[str], None]] = None,
) -> _T:
    """``memo[key]``, else the file at ``path``, else ``build()``.

    A built value is written to ``path`` through :func:`atomic_replace`
    and every value ends up in ``memo``, the caller's per-process dict.
    ``path=None`` skips the disk tier in both directions.  ``count`` is
    told ``"hits"`` (memo or disk), ``"disk_hits"`` or ``"misses"``.
    """
    tally = count or (lambda event: None)
    if key in memo:
        tally("hits")
        return memo[key]
    value = load_or_miss(path, load) if path is not None else None
    if value is not None:
        tally("hits")
        tally("disk_hits")
    else:
        tally("misses")
        value = build()
        if path is not None:
            atomic_replace(lambda tmp: save(value, tmp), path)
    memo[key] = value
    return value
