"""Prefetcher interface shared by the treelet prefetcher and baselines.

The RT unit drives prefetchers through three hooks:

* :meth:`on_cycle` — once per simulated cycle (decision logic);
* :meth:`on_demand_issue` — whenever a demand load is issued (history
  based prefetchers such as stride/stream/MTA learn from this);
* :meth:`pop_prefetch` — when the memory scheduler has a free port, the
  RT unit pops one queued prefetch and issues it to L1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class PrefetchRequest:
    """One queued prefetch: a line-aligned address plus bookkeeping."""

    address: int
    region: str = "node"
    #: invoked when the prefetch's data arrives (Strict Wait uses this).
    on_complete: Optional[Callable[[int], None]] = None
    #: earliest cycle this entry may issue (the voter-latency gate is
    #: per entry: a later decision must not re-delay earlier entries).
    release_cycle: int = 0


@dataclass
class PrefetcherStats:
    decisions: int = 0
    treelets_prefetched: int = 0
    requests_enqueued: int = 0
    requests_issued: int = 0
    requests_dropped: int = 0  # queue overflow


class Prefetcher:
    """Base class: a no-op prefetcher (the baseline RT unit)."""

    def __init__(self) -> None:
        self.stats = PrefetcherStats()
        #: the treelet the schedulers should favor; None when undefined.
        self.last_prefetched_treelet: Optional[int] = None
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None
        #: trace track name (the observer stamps in the SM id).
        self.obs_track = "Prefetcher"

    def on_cycle(self, cycle: int, warps, version: int = -1) -> None:
        """Observe the warp buffer; may enqueue prefetches.

        ``version`` is a monotonically increasing counter the RT unit
        bumps whenever warp-buffer vote state changes; implementations
        may skip recomputation when it has not moved.
        """

    def on_demand_issue(self, warp_id: int, address: int, cycle: int) -> None:
        """Observe a demand load issued by the memory scheduler."""

    def on_feedback(self, cycle: int, counts) -> None:
        """Observe the SM's cumulative prefetch-effectiveness counters.

        Called once per cycle by the RT unit; adaptive prefetchers use
        this to tune their throttling (Section 7.1's suggestion).
        """

    def pop_prefetch(self, cycle: int) -> Optional[PrefetchRequest]:
        """Next prefetch to issue, or None."""
        return None

    def queue_depth(self) -> int:
        """Entries waiting to issue."""
        return 0

    def next_activity_cycle(self, cycle: int, version: int) -> Optional[int]:
        """Earliest cycle > ``cycle`` at which this prefetcher could act
        on its own (pop a queued entry, make a decision, tick an epoch)
        without any new demand/memory activity waking its RT unit.

        The replay engine uses this to know when a unit with no
        issue-ready rays still has to be stepped, so skipping cycles
        never skips a prefetcher decision.  ``None`` means "nothing
        scheduled" — the prefetcher only reacts to events.
        Implementations must never return a value <= ``cycle``.

        The base rule covers every history-based prefetcher (stride,
        stream, GHB, MTA): queued entries are poppable on the very next
        cycle; an empty queue means fully reactive.
        """
        return cycle + 1 if self.queue_depth() else None
