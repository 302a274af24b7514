"""The one parser for the on/off ``REPRO_*`` environment flags.

``REPRO_SNAPSHOTS`` (:func:`repro.harness.snapshots.snapshots_enabled`)
and ``REPRO_DETSAN`` (:func:`repro.analysis.detsan.detsan_enabled`) are
switches, and a switch must not guess: ``off`` is not "set, therefore
on", and a typo does not silently run the other way.
"""

from __future__ import annotations

import os

_ON = ("1", "on", "yes", "true", "mem")
_OFF = ("0", "off", "no", "false")


def env_flag(name: str, default: bool) -> bool:
    """Environment variable ``name`` as a strict, case-insensitive flag:
    unset or empty is ``default``, an unknown spelling raises."""
    value = os.environ.get(name, "").strip().lower()
    if not value:
        return default
    if value not in _ON + _OFF:
        raise ValueError(
            f"{name}={value!r} is not one of {'|'.join(_ON)} (on) "
            f"or {'|'.join(_OFF)} (off)"
        )
    return value in _ON
