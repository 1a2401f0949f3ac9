"""A minimal future-event queue for the timing model.

The RT units step cycle-by-cycle, but memory responses land at known
future cycles; a binary heap keyed by cycle keeps that cheap.  Events
are callables invoked with the cycle at which they fire.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

EventCallback = Callable[[int], None]


class EventQueue:
    """Future events ordered by cycle (FIFO among same-cycle events)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, EventCallback]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, cycle: int, callback: EventCallback) -> None:
        """Run ``callback(cycle)`` when the simulation reaches ``cycle``."""
        if cycle < 0:
            raise ValueError("cannot schedule an event in negative time")
        heapq.heappush(self._heap, (cycle, next(self._counter), callback))

    def next_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def run_due(self, cycle: int) -> int:
        """Fire every event scheduled at or before ``cycle``; returns count.

        Events fired may schedule new events for the same cycle; those run
        too (the loop drains until nothing at <= cycle remains).
        """
        fired = 0
        while self._heap and self._heap[0][0] <= cycle:
            event_cycle, _, callback = heapq.heappop(self._heap)
            callback(event_cycle)
            fired += 1
        return fired

    def drain(self, cycle: int) -> int:
        """Fire every remaining event in order; return the final cycle base.

        This is the single trailing pass the replay engine (and all its
        units) runs after its main loop exits: in-flight memory
        responses (fills, DRAM completions) still land at their
        scheduled cycles, and the cycle counter advances to the latest
        of them.  One heap pop per event — no per-cycle ``run_due``
        sub-loops — so a multi-unit drain never rescans the queue.  The
        returned value is the base that denominates every per-cycle rate
        in ``SimStats``, so callers must use it — not the loop-exit
        cycle — when collecting statistics.
        """
        heap = self._heap
        while heap:
            event_cycle, _, callback = heapq.heappop(heap)
            callback(event_cycle)
            if event_cycle > cycle:
                cycle = event_cycle
        return cycle
