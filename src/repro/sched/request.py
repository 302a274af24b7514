"""The block I/O request model shared by workloads and schedulers."""

from __future__ import annotations

import enum
from typing import Optional


class Priority(enum.IntEnum):
    """I/O scheduling priority set by the Set_Priority RL action."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


class IoRequest:
    """One block I/O request against a vSSD.

    Addresses are in logical page numbers (LPNs); ``num_pages`` pages
    starting at ``lpn`` are read or written.  Timestamps are microseconds
    of simulation time and are filled in as the request moves through the
    pipeline: ``submit_time`` (enters the vSSD's virtual queue),
    ``dispatch_time`` (leaves the queue for the flash channels), and
    ``complete_time`` (all page operations finished).

    A request is plain data, not re-checked: its producers (the drivers,
    and replay behind ``load_trace``'s row checks) make it valid.
    """

    __slots__ = (
        "vssd_id",
        "op",
        "lpn",
        "num_pages",
        "page_size",
        "submit_time",
        "dispatch_time",
        "complete_time",
        "failed",
    )

    def __init__(
        self,
        vssd_id: int,
        op: str,
        lpn: int,
        num_pages: int,
        page_size: int,
        submit_time: float,
    ) -> None:
        self.vssd_id = vssd_id
        self.op = op
        self.lpn = lpn
        self.num_pages = num_pages
        self.page_size = page_size
        self.submit_time = submit_time
        self.dispatch_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        self.failed = False

    @property
    def size_bytes(self) -> int:
        """Total bytes moved by this request."""
        return self.num_pages * self.page_size

    @property
    def is_read(self) -> bool:
        """True for read requests."""
        return self.op == "read"

    @property
    def latency_us(self) -> float:
        """End-to-end latency (submit to complete)."""
        if self.complete_time is None:
            raise RuntimeError("request not complete")
        return self.complete_time - self.submit_time

    @property
    def queue_delay_us(self) -> float:
        """Time spent waiting in the vSSD's virtual queue."""
        if self.dispatch_time is None:
            raise RuntimeError("request not dispatched")
        return self.dispatch_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"IoRequest(vssd={self.vssd_id}, {self.op} lpn={self.lpn} x{self.num_pages})"
