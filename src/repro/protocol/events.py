"""A minimal discrete-event scheduler for the protocol testbed.

The paper's testbed runs one OS process per node over TCP; we replace the
wall clock with simulated time.  Events are ``(time, sequence, action)``
triples in a heap; the sequence number makes ordering deterministic for
simultaneous events.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.errors import EventBudgetError

Action = Callable[[], None]


class EventQueue:
    """Deterministic simulated-time event loop."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Action]] = []
        self._sequence = 0
        self.now = 0.0

    def schedule(self, delay: float, action: Action) -> None:
        """Run ``action`` at ``now + delay`` (delays must be non-negative)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        heapq.heappush(self._heap, (self.now + delay, self._sequence, action))
        self._sequence += 1

    def run_until_idle(
        self, max_events: int | Callable[[], int] | None = None
    ) -> int:
        """Drain the queue; returns the number of events processed.

        ``max_events`` bounds the drain: an ``int`` is a fixed budget, a
        zero-argument callable is re-evaluated before each event so
        producers that feed the queue while it drains (the streaming
        concurrent engine) can grow the budget incrementally.  Exceeding
        the budget raises :class:`repro.errors.EventBudgetError`.
        """
        count = 0
        while self._heap:
            if max_events is not None:
                limit = max_events() if callable(max_events) else max_events
                if count >= limit:
                    raise EventBudgetError(
                        f"event budget of {limit} exhausted - livelock?"
                    )
            self.now, _, action = heapq.heappop(self._heap)
            action()
            count += 1
        return count
