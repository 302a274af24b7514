"""Discrete-event simulation engine used by the SSD substrate."""

from repro.sim.engine import Simulator
from repro.sim.random import ExactDraws, RandomStreams

__all__ = ["Simulator", "ExactDraws", "RandomStreams"]
