"""Tests for the cached pre-trained artifacts."""

import pickle

import numpy as np
import pytest

from repro.adversarial import search
from repro.harness import get_classifier, get_pretrained_net
from repro.harness.pretrained import (
    classifier_cache_path,
    pretrained_cache_path,
)
from repro.rl.nets import PolicyValueNet


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import repro.harness.pretrained as module

    module._net_cache.clear()
    net = get_pretrained_net(iterations=2, seed=1)
    cache_file = pretrained_cache_path(iterations=2, seed=1)
    assert cache_file.parent == tmp_path
    assert cache_file.exists()
    # No temp-file litter: the write is atomic (temp + os.replace).
    assert [p.name for p in tmp_path.glob("*.tmp*")] == []
    module._net_cache.clear()
    again = get_pretrained_net(iterations=2, seed=1)
    assert np.allclose(net.get_flat_params(), again.get_flat_params())


def test_cache_path_keyed_by_config(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    a = pretrained_cache_path(iterations=2, seed=1)
    b = pretrained_cache_path(iterations=3, seed=1)
    c = pretrained_cache_path(iterations=2, seed=2)
    d = pretrained_cache_path(iterations=2, seed=1, variant="custom-local")
    assert len({a, b, c, d}) == 4
    assert a == pretrained_cache_path(iterations=2, seed=1)


def test_scalar_cache_names_are_pinned(tmp_path, monkeypatch):
    """The envs=1 key is a function of what the scalar engine trains on
    and nothing else: these names only move with the RL config
    defaults, the sampler version, or a change to the key itself."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert pretrained_cache_path().name == "pretrained_fa9271a5daaf.npz"
    assert pretrained_cache_path(envs=1).name == "pretrained_fa9271a5daaf.npz"
    assert pretrained_cache_path(iterations=2, seed=1).name == "pretrained_14d190dd27f8.npz"


def test_lockstep_version_keys_only_vectorized_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import repro.harness.pretrained as module

    scalar, vector = pretrained_cache_path(), pretrained_cache_path(envs=8)
    monkeypatch.setattr(module, "LOCKSTEP_VERSION", module.LOCKSTEP_VERSION + 1)
    assert pretrained_cache_path() == scalar
    assert pretrained_cache_path(envs=8) != vector


def test_memo_cache_returns_same_object(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    a = get_pretrained_net(iterations=2, seed=2)
    b = get_pretrained_net(iterations=2, seed=2)
    assert a is b


def test_classifier_memoized():
    assert get_classifier(seed=0) is get_classifier(seed=0)


def test_classifier_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import repro.harness.pretrained as module

    module._classifier_cache.clear()
    first = get_classifier(seed=0)
    assert classifier_cache_path(seed=0).exists()
    module._classifier_cache.clear()
    second = get_classifier(seed=0)
    assert first is not second
    features = np.zeros((1, 4))
    assert first.predict_label(features) == second.predict_label(features)


# -- a torn cache file is a miss: rebuilt, and replaced on disk ------------

def _truncate(path):
    """Leave the first half of ``path``, as an interrupted copy would."""
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def test_truncated_pretrained_net_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import repro.harness.pretrained as module

    monkeypatch.setattr(module, "_net_cache", {})
    net = get_pretrained_net(iterations=2, seed=1)
    cache_file = pretrained_cache_path(iterations=2, seed=1)
    intact = cache_file.read_bytes()
    for damage in (_truncate, lambda path: path.write_bytes(b"")):
        damage(cache_file)
        module._net_cache.clear()
        again = get_pretrained_net(iterations=2, seed=1)
        assert np.array_equal(net.get_flat_params(), again.get_flat_params())
        loaded = PolicyValueNet.load(str(cache_file))  # replaced, and whole
        assert np.array_equal(net.get_flat_params(), loaded.get_flat_params())
        assert len(cache_file.read_bytes()) == len(intact)
    assert [p.name for p in tmp_path.glob(".*.tmp*")] == []


def test_truncated_classifier_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import repro.harness.pretrained as module

    monkeypatch.setattr(module, "_classifier_cache", {})
    first = get_classifier(seed=0)
    cache_file = classifier_cache_path(seed=0)
    for damage in (_truncate, lambda path: path.write_bytes(b"")):
        damage(cache_file)
        module._classifier_cache.clear()
        second = get_classifier(seed=0)
        features = np.random.default_rng(0).random((16, 4))
        assert [first.predict_label(row[None]) for row in features] == [
            second.predict_label(row[None]) for row in features
        ]
        pickle.loads(cache_file.read_bytes())  # replaced, and whole


def test_truncated_tiny_protagonist_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(search, "_TINY_CACHE", {})
    monkeypatch.setattr(
        search, "PROTAGONIST_STATS", {"hits": 0, "misses": 0, "disk_hits": 0}
    )
    params = search.tiny_protagonist_params(seed=3, iterations=1)
    cache_file = search._tiny_cache_path(3, 1)
    _truncate(cache_file)
    search._TINY_CACHE.clear()
    again = search.tiny_protagonist_params(seed=3, iterations=1)
    assert search.PROTAGONIST_STATS == {"hits": 0, "misses": 2, "disk_hits": 0}
    assert params.keys() == again.keys()
    assert all(np.array_equal(params[name], again[name]) for name in params)
    search._TINY_CACHE.clear()
    search.tiny_protagonist_params(seed=3, iterations=1)  # replaced: a disk hit
    assert search.PROTAGONIST_STATS == {"hits": 1, "misses": 2, "disk_hits": 1}


def test_a_readable_file_of_the_wrong_shape_is_not_a_miss(tmp_path, monkeypatch):
    """Only unreadable files are rebuilt: a whole file holding another
    architecture's weights under this key is a bug to surface, not to
    train over."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import repro.harness.pretrained as module

    monkeypatch.setattr(module, "_net_cache", {})
    cache_file = pretrained_cache_path(iterations=2, seed=5)
    other = PolicyValueNet(33, 7, (8, 8))
    other.params["W0"] = other.params["W0"][:, :4]
    other.save(str(cache_file))
    before = cache_file.read_bytes()
    net = get_pretrained_net(iterations=2, seed=5)
    assert cache_file.read_bytes() == before
    with pytest.raises(ValueError):
        net.forward_batch(np.zeros((2, 33)))
