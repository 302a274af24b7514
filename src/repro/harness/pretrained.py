"""Cached access to the pre-trained policy and workload classifier.

Pre-training (Section 3.8) happens offline; benchmarks and examples reuse
one pre-trained network.  The network is cached on disk so separate
pytest/benchmark/worker processes do not retrain.  Cache files are keyed
by a hash of everything that shapes the artifact — iteration count,
seed, reward variant, and the :class:`~repro.config.RLConfig` defaults —
and read, written and rebuilt by the one keyed-file rule in
:mod:`repro.cache`.
"""

from __future__ import annotations

import pickle
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from repro.cache import cache_dir, config_hash, read_through
from repro.clustering.classifier import WorkloadTypeClassifier, fit_default_classifier
from repro.config import RLConfig
from repro.core.pretrain import LOCKSTEP_VERSION, SAMPLER_VERSION, pretrain_best
from repro.rl.nets import PolicyValueNet

#: Default pre-training effort; below the paper's 2,000 iterations
#: because the fast environment converges quickly (and checkpoint
#: selection keeps the best policy along the way).
DEFAULT_ITERATIONS = 600
DEFAULT_SEED = 7

#: Per-process memos in front of the disk files; a forked worker refills
#: its private copy from disk, and the contents are deterministic per key.
_net_cache: dict = {}
_classifier_cache: dict = {}

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
    fleet width is its own artifact, and a vectorized artifact also
    carries the lockstep collector's version (the scalar key does not, so
    a change to that collector leaves ``envs=1`` caches valid).  The
    worker count is *not* in the key: a parallel seed search selects the
    identical winner as a serial one.
    """
    key = {
        "iterations": iterations,
        "seed": seed,
        "variant": variant,
        "rl_config": asdict(RLConfig()),
        "sampler_version": SAMPLER_VERSION,
        "envs": envs,
    }
    if envs > 1:
        key["lockstep_version"] = LOCKSTEP_VERSION
    digest = config_hash(key)
    return cache_dir() / f"pretrained_{digest}.npz"


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
    return read_through(
        _net_cache,
        (iterations, seed, variant, envs),
        pretrained_cache_path(iterations, seed, variant, envs) if use_disk_cache else None,
        load=lambda path: PolicyValueNet.load(str(path)),
        build=lambda: pretrain_best(
            seeds=(seed, seed + 4, seed + 16, seed + 24, seed + 40),
            iterations=iterations,
            workers=workers,
            envs=envs,
            **VARIANT_KWARGS[variant],
        ).net,
        save=lambda net, tmp: net.save(str(tmp)),
    )


def classifier_cache_path(seed: int = 0) -> Path:
    """Where the fitted workload classifier for this seed lives on disk."""
    digest = config_hash(
        {"seed": seed, "windows_per_workload": 4, "requests_per_window": 2000}
    )
    return cache_dir() / f"classifier_{digest}.pkl"


def get_classifier(seed: int = 0, use_disk_cache: bool = True) -> WorkloadTypeClassifier:
    """The fitted workload-type classifier (memo- and disk-cached)."""
    return read_through(
        _classifier_cache,
        seed,
        classifier_cache_path(seed) if use_disk_cache else None,
        load=lambda path: pickle.loads(path.read_bytes()),
        build=lambda: fit_default_classifier(
            seed=seed, windows_per_workload=4, requests_per_window=2000
        ),
        save=lambda classifier, tmp: tmp.write_bytes(pickle.dumps(classifier)),
    )
