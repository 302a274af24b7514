"""Discrete-event SSD substrate: flash geometry, timing, FTL, and GC.

This package plays the role of the open-channel SSD hardware in the paper.
It models channels, chips, and blocks explicitly — a block is a gid into
the device's columnar :class:`BlockStore` — serves page operations
through a pipelined bus/chip timing model, performs out-of-place updates
with page-level mapping, and reclaims space with lazy garbage collection.
"""

from repro.ssd.blockstate import BlockState, BlockStore
from repro.ssd.channel import Channel
from repro.ssd.device import Ssd
from repro.ssd.ftl import VssdFtl, FtlStats

__all__ = [
    "BlockState",
    "BlockStore",
    "Channel",
    "Ssd",
    "VssdFtl",
    "FtlStats",
]
