"""Pre-train cache warming for parallel sweeps.

FleetIO cells need the pre-trained policy network and the workload-type
classifier.  Without warming, a cold cache would make every fleetio
worker pre-train the same network redundantly — minutes of duplicated
work per worker.  Warming in the *parent* before the fan-out means:

* under ``fork``, children inherit the in-memory memo caches
  copy-on-write — zero per-worker cost;
* under ``spawn`` (or a later cold run), children hit the on-disk cache,
  which is keyed by config hash and written atomically
  (:mod:`repro.cache`), so concurrent cold workers can race
  on the same key without corrupting it.
"""

from __future__ import annotations

from typing import Sequence

from repro.parallel.matrix import ExperimentCell


def cells_need_policy(cells: Sequence[ExperimentCell]) -> bool:
    """True when any cell runs a fleetio policy."""
    return any(cell.policy.startswith("fleetio") for cell in cells)


def warm_policy_cache(cells: Sequence[ExperimentCell]) -> list:
    """Materialize every cached artifact the sweep's cells will need.

    Returns the on-disk cache paths that now exist (empty when no cell
    needs the RL stack).
    """
    if not cells_need_policy(cells):
        return []
    from repro.harness.pretrained import (
        classifier_cache_path,
        get_classifier,
        get_pretrained_net,
        pretrained_cache_path,
    )

    get_pretrained_net()
    get_classifier()
    return [pretrained_cache_path(), classifier_cache_path()]
