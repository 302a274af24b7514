"""Cached access to the pre-trained policy and workload classifier.

Pre-training (Section 3.8) happens offline; benchmarks and examples reuse
one pre-trained network.  The network is cached on disk so separate
pytest/benchmark/worker processes do not retrain.  Cache files are keyed
by a hash of everything that shapes the artifact — iteration count,
seed, reward variant, and the :class:`~repro.config.RLConfig` defaults —
so a config change invalidates stale caches instead of silently reusing
them.  Writes are atomic (temp file + ``os.replace``) so concurrent
workers racing on a cold cache can never observe a half-written file;
a file torn some other way (a partial copy, a full disk) reads as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import zipfile
from typing import Callable, Optional, TypeVar
from dataclasses import asdict
from pathlib import Path

from repro.clustering.classifier import WorkloadTypeClassifier, fit_default_classifier
from repro.config import RLConfig
from repro.core.pretrain import SAMPLER_VERSION, pretrain_best
from repro.rl.nets import PolicyValueNet

#: Default pre-training effort; below the paper's 2,000 iterations
#: because the fast environment converges quickly (and checkpoint
#: selection keeps the best policy along the way).
DEFAULT_ITERATIONS = 600
DEFAULT_SEED = 7

_net_cache: dict = {}
_classifier_cache: dict = {}

_T = TypeVar("_T")


def _cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE_DIR")
    path = Path(root) if root else Path.home() / ".cache" / "repro"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _config_hash(payload: dict) -> str:
    """A short stable hash over a JSON-serializable config payload."""
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


def _atomic_replace(write: Callable[[Path], None], final_path: Path) -> None:
    """Write via ``write(tmp_path)`` then atomically rename into place."""
    tmp = final_path.with_name(f".{final_path.name}.{os.getpid()}.tmp{final_path.suffix}")
    try:
        write(tmp)
        os.replace(tmp, final_path)
    finally:
        tmp.unlink(missing_ok=True)


def _load_or_miss(path: Path, load: Callable[[Path], _T]) -> Optional[_T]:
    """``load(path)``, or ``None`` if the file is missing, torn or stale.

    The rule for every keyed file under ``REPRO_CACHE_DIR``: one that
    cannot be read back is a miss, and the caller rebuilds the artifact
    and overwrites the file through :func:`_atomic_replace`.  A file that
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


#: Reward-ablation variants (Figure 15).  ``custom-local`` keeps the
#: per-cluster alphas but trains selfish agents (beta = 1);
#: ``unified-global`` keeps the beta blend but trains with one unified
#: alpha = 0.01 for every workload.
VARIANT_KWARGS = {
    "default": {},
    "custom-local": {"beta": 1.0},
    "unified-global": {"alpha_override": 0.01},
}


def pretrained_cache_path(
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = DEFAULT_SEED,
    variant: str = "default",
    envs: int = 1,
) -> Path:
    """Where the pre-trained net for this configuration lives on disk.

    ``envs`` is part of the key because the vectorized engine draws
    different exploration streams than the scalar reference, so each
    fleet width is its own artifact.  The worker count is *not*: a
    parallel seed search selects the identical winner as a serial one.
    """
    digest = _config_hash(
        {
            "iterations": iterations,
            "seed": seed,
            "variant": variant,
            "rl_config": asdict(RLConfig()),
            "sampler_version": SAMPLER_VERSION,
            "envs": envs,
        }
    )
    return _cache_dir() / f"pretrained_{digest}.npz"


def get_pretrained_net(
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = DEFAULT_SEED,
    use_disk_cache: bool = True,
    variant: str = "default",
    envs: int = 1,
    workers: Optional[int] = None,
) -> PolicyValueNet:
    """A pre-trained policy network (memo- and disk-cached).

    ``envs``/``workers`` select the vectorized collection engine and the
    process fan-out of the seed search (see
    :func:`repro.core.pretrain.pretrain_best`); both default to the
    serial scalar reference that produced the canonical artifact.
    """
    if variant not in VARIANT_KWARGS:
        raise KeyError(f"unknown variant {variant!r}; have {sorted(VARIANT_KWARGS)}")
    key = (iterations, seed, variant, envs)
    if key in _net_cache:
        return _net_cache[key]
    cache_file = pretrained_cache_path(iterations, seed, variant, envs)
    net = None
    if use_disk_cache:
        net = _load_or_miss(cache_file, lambda path: PolicyValueNet.load(str(path)))
    if net is None:
        net = pretrain_best(
            seeds=(seed, seed + 4, seed + 16, seed + 24, seed + 40),
            iterations=iterations,
            workers=workers,
            envs=envs,
            **VARIANT_KWARGS[variant],
        ).net
        if use_disk_cache:
            _atomic_replace(lambda tmp: net.save(str(tmp)), cache_file)
    _net_cache[key] = net  # fleetlint: disable=parallel-shared-mutation  read-through cache keyed by config hash; workers refill their fork-private copy from the on-disk cache, contents are deterministic
    return net


def classifier_cache_path(seed: int = 0) -> Path:
    """Where the fitted workload classifier for this seed lives on disk."""
    digest = _config_hash(
        {"seed": seed, "windows_per_workload": 4, "requests_per_window": 2000}
    )
    return _cache_dir() / f"classifier_{digest}.pkl"


def get_classifier(seed: int = 0, use_disk_cache: bool = True) -> WorkloadTypeClassifier:
    """The fitted workload-type classifier (memo- and disk-cached)."""
    if seed in _classifier_cache:
        return _classifier_cache[seed]
    cache_file = classifier_cache_path(seed)
    classifier = None
    if use_disk_cache:
        classifier = _load_or_miss(
            cache_file, lambda path: pickle.loads(path.read_bytes())
        )
    if classifier is None:
        classifier = fit_default_classifier(
            seed=seed, windows_per_workload=4, requests_per_window=2000
        )
        if use_disk_cache:
            _atomic_replace(
                lambda tmp: tmp.write_bytes(pickle.dumps(classifier)), cache_file
            )
    _classifier_cache[seed] = classifier  # fleetlint: disable=parallel-shared-mutation  read-through cache keyed by seed; fork-private, refilled deterministically from disk
    return classifier
