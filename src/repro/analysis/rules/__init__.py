"""Builtin fleetlint rules — importing this package registers them all."""

from repro.analysis.rules import (  # noqa: F401
    defaults,
    float_time,
    ordering,
    rng,
    units,
    wall_clock,
)
