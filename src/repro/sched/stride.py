"""Stride scheduling (Waldspurger & Weihl, 1995).

Deterministic proportional-share scheduling: each client holds tickets;
its *stride* is inversely proportional to its tickets, and the client with
the smallest *pass* value runs next, its pass advancing by its stride.
The software-isolated baseline uses this so bandwidth-hungry tenants do
not starve low-intensity ones (Section 4.1).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

#: Numerator used to derive strides; any large constant works.
STRIDE1 = 1 << 20


class StrideScheduler:
    """Proportional-share pick-next among registered clients."""

    def __init__(self) -> None:
        self._tickets: dict = {}
        self._stride: dict = {}
        self._pass: dict = {}

    def add_client(self, client: Hashable, tickets: int = 100) -> None:
        """Register a client with the given ticket count."""
        if tickets <= 0:
            raise ValueError("tickets must be positive")
        if client in self._tickets:
            raise ValueError(f"client {client!r} already registered")
        self._tickets[client] = tickets
        self._stride[client] = STRIDE1 / tickets
        # New clients start at the current minimum pass so they neither
        # monopolize (pass=0) nor starve.
        self._pass[client] = min(self._pass.values(), default=0.0)

    def remove_client(self, client: Hashable) -> None:
        """Remove a client (no-op if absent)."""
        self._tickets.pop(client, None)
        self._stride.pop(client, None)
        self._pass.pop(client, None)

    def set_tickets(self, client: Hashable, tickets: int) -> None:
        """Change a registered client's ticket count (its stride updates).

        Raises :class:`KeyError` for unregistered clients: silently
        creating ticket/stride entries without a pass value would corrupt
        ``pick`` and ``add_client``'s min-pass bookkeeping.
        """
        if tickets <= 0:
            raise ValueError("tickets must be positive")
        if client not in self._tickets:
            raise KeyError(
                f"client {client!r} not registered; call add_client first"
            )
        self._tickets[client] = tickets
        self._stride[client] = STRIDE1 / tickets

    def clients(self) -> list:
        """All registered client ids."""
        return list(self._tickets)

    def pick(self, eligible: Optional[Iterable[Hashable]] = None) -> Optional[Hashable]:
        """Return the eligible client with the smallest pass and charge it."""
        # Called once per dispatch attempt: filter unregistered clients
        # inline rather than building an intermediate list per call.
        tickets = self._tickets
        passes = self._pass
        best = None
        best_pass = None
        for client in tickets.keys() if eligible is None else eligible:
            if eligible is not None and client not in tickets:
                continue
            p = passes[client]
            if best_pass is None or p < best_pass:
                best, best_pass = client, p
        if best is None:
            return None
        passes[best] += self._stride[best]
        return best
