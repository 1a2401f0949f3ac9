"""In-memory LRU result cache for the simulation service.

The service layers three caches:

1. this LRU — finished **result documents** keyed by normalized
   request, served straight from the HTTP handler in microseconds
   without touching the scheduler;
2. the pipeline's artifact store (``repro.core.pipeline.STORE``), whose
   memory tier holds ``ExperimentResult`` objects, hit when a new
   document must be built for artifacts that were already simulated;
3. the store's disk tier, :class:`repro.exec.ArtifactCache` — BVHs,
   rays, traces, shared across restarts and worker processes.

Entries are bounded (strict LRU eviction) so a long-running service
has a fixed memory ceiling regardless of how many distinct requests it
has seen.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class ResultLRU:
    """A bounded mapping from request cache-key to result document."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[tuple, dict]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[dict]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, value: dict) -> None:
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def info(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }
