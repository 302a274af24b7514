"""Discrete-event simulation engine used by the SSD substrate."""

from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

__all__ = ["Simulator", "RandomStreams"]
