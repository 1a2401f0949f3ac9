"""Top-level GPU: SMs with RT units over a shared memory system.

``GpuModel.run`` replays a batch of per-ray traversal traces to
completion and returns :class:`~repro.gpusim.stats.SimStats`.  The
replay engine is event-driven: the loop advances in time buckets
(pending event cycles plus per-unit wake cycles) and steps only RT
units with actionable work, crediting the skipped stall cycles in bulk.
Per-unit wake cycles come from :meth:`RTUnit.next_wake_kind`, which
folds in the prefetcher's self-scheduled activity (queue releases,
decision gates, adaptive epochs) so no decision point is ever skipped.

Observed runs (a :class:`repro.obs.Observer` attached) replay on the
same engine; the statistics, and the trace events they deliver, are
pinned against the committed goldens of ``tests/golden_replay.py``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..bvh import FlatBVH, NodeLayout
from ..core.config import GpuConfig
from ..prefetch.base import Prefetcher
from ..traversal import RayTrace
from .event import EventQueue
from .memsys import MemorySystem
from .rtunit import RTUnit
from .stats import SimStats, merge_cache_stats
from .timeline import TimelineSampler
from .warp import RayTask

PrefetcherFactory = Callable[[int], Optional[Prefetcher]]

class SimulationLimitError(RuntimeError):
    """The run exceeded ``max_cycles`` (deadlock guard)."""


class GpuModel:
    """A configured GPU ready to replay one traversal workload."""

    def __init__(
        self,
        config: GpuConfig,
        scheduler_policy: str = "baseline",
        prefetcher_factory: Optional[PrefetcherFactory] = None,
        timeline: Optional[TimelineSampler] = None,
        observer=None,
    ) -> None:
        self.config = config
        #: Optional occupancy sampler (observational only).
        self.timeline = timeline
        self.events = EventQueue()
        self.memsys = MemorySystem(config, self.events)
        self.units: List[RTUnit] = []
        for sm in range(config.n_sms):
            prefetcher = prefetcher_factory(sm) if prefetcher_factory else None
            self.units.append(
                RTUnit(
                    sm,
                    config,
                    self.memsys,
                    self.events,
                    scheduler_policy=scheduler_policy,
                    prefetcher=prefetcher,
                )
            )
        # Fills mark their RT unit dirty, so a unit sleeping on full L1
        # MSHRs is stepped the cycle an entry frees.
        self.memsys.wake_units = self.units
        #: Optional repro.obs.Observer; attaching is observational only.
        self.observer = observer
        if observer is not None:
            observer.attach(self)

    def load(
        self,
        traces: Sequence[RayTrace],
        bvh: FlatBVH,
        layout: NodeLayout,
    ) -> int:
        """Pack traces into warps and distribute them over the SMs.

        Rays are grouped in trace order (neighboring pixels share a warp,
        like a real ray-generation shader) and warps round-robin across
        SMs.  Returns the number of warps created.
        """
        warp_size = self.config.warp_size
        line_bytes = self.config.l1.line_bytes
        # SoA precompute: one numpy gather per ray resolves every visit's
        # byte address and treelet id up front, so the replay hot paths
        # index flat lists instead of chasing layout dicts per fetch.
        address_table, treelet_table = layout.lookup_arrays()
        tasks = []
        for trace in traces:
            if not trace.visits:
                continue
            ids = np.asarray(
                [visit.node_id for visit in trace.visits], dtype=np.intp
            )
            tasks.append(
                RayTask(
                    trace=trace,
                    bvh=bvh,
                    layout=layout,
                    line_bytes=line_bytes,
                    addresses=address_table[ids].tolist(),
                    treelets=treelet_table[ids].tolist(),
                )
            )
        warps = [
            tasks[i : i + warp_size] for i in range(0, len(tasks), warp_size)
        ]
        for index, warp in enumerate(warps):
            self.units[index % len(self.units)].add_warp(warp)
        self._ray_count = getattr(self, "_ray_count", 0) + len(tasks)
        self._warp_count = getattr(self, "_warp_count", 0) + len(warps)
        return len(warps)

    def run(self) -> SimStats:
        """Simulate the loaded work to completion; returns cumulative stats.

        May be called repeatedly: each call continues the cycle counter
        and keeps caches warm, so ``load(); run(); load(); run()``
        models back-to-back frames.  Statistics are cumulative across
        calls; use :meth:`run_frame` for per-frame deltas.

        The deadlock guard is per-run: each call may simulate up to
        ``config.max_cycles`` fresh cycles regardless of how far the
        cumulative counter has advanced.
        """
        cycle = self._replay()
        # Drain any trailing events (e.g. late prefetch fills).  The
        # drain advances the cycle base past the loop exit, and
        # ``_collect`` denominates every rate (DRAM utilization, stall
        # fractions, IPC) by that extended count, so utilization covers
        # the cycles in which the memory system was genuinely active.
        cycle = self.events.drain(cycle)
        self._current_cycle = cycle
        return self._collect(cycle)

    def _replay(self) -> int:
        """The event-engine core: advance in time buckets, step only
        units with actionable work.

        A bucket is processed at every pending event cycle and at every
        per-unit wake cycle (:meth:`RTUnit.next_wake_kind`: admittable
        pending warps, issue-ready rays with a free MSHR, test-FIFO due
        cycles, and the prefetcher's self-scheduled activity).  Event
        callbacks mark their unit dirty so data arrivals are acted on in
        the same cycle they land: each bucket runs its events first,
        then steps the units.  Cycles a unit skips are, by construction,
        cycles its step would only have counted as stalls; they are
        credited in bulk at its next step using the stall kind captured
        when the skip began — warp state can only change in a step or an
        event callback, and every callback dirties the unit, so the kind
        is constant across any skipped stretch.
        """
        config = self.config
        events = self.events
        units = self.units
        timeline = self.timeline
        start = getattr(self, "_current_cycle", 0)
        cycle = start
        max_cycles = config.max_cycles
        n = len(units)
        indices = tuple(range(n))
        wakes: List[Optional[int]] = [start] * n
        last_step = [start - 1] * n
        kinds = [0] * n
        run_due = events.run_due
        next_cycle = events.next_cycle
        if not any(unit.busy() for unit in units):
            return cycle
        while True:
            if cycle - start > max_cycles:
                raise SimulationLimitError(
                    f"exceeded {max_cycles} cycles; "
                    "likely a lost memory response"
                )
            run_due(cycle)
            if timeline is not None:
                # Sampling must observe post-delivery state, so drain the
                # per-unit FIFOs before the sample (the merged sweep
                # below then finds them empty).
                for unit in units:
                    if (
                        unit._box_tests
                        or unit._prim_tests
                        or unit._hit_responses
                    ):
                        unit.run_tests_due(cycle)
                timeline.maybe_sample(cycle, units)
            stepped = False
            for i in indices:
                unit = units[i]
                # Deliver due test completions / hit responses just
                # before this unit's step.  Deliveries touch only the
                # unit's own rays and additive shared counters, and a
                # step enqueues work strictly in the future (latencies
                # are >= 1), so interleaving them per unit is
                # equivalent to the drain-all-then-step-all order.
                # The heads are checked here (each FIFO is in due order)
                # so non-due queues cost no call.
                fifo = unit._hit_responses
                if fifo and fifo[0][0] <= cycle:
                    unit.run_tests_due(cycle)
                else:
                    fifo = unit._box_tests
                    if fifo and fifo[0][0] <= cycle:
                        unit.run_tests_due(cycle)
                    else:
                        fifo = unit._prim_tests
                        if fifo and fifo[0][0] <= cycle:
                            unit.run_tests_due(cycle)
                wake = wakes[i]
                if unit.dirty or (wake is not None and wake <= cycle):
                    unit.dirty = False
                    stepped = True
                    gap = cycle - last_step[i] - 1
                    if gap > 0:
                        kind = kinds[i]
                        if kind == 1:
                            unit.stats.stall_cycles += gap
                            if unit.obs is not None:
                                unit.obs.emit(
                                    "rtunit.stall",
                                    last_step[i] + 1,
                                    f"RT{unit.sm_id}",
                                    dur=gap,
                                )
                        elif kind == 2:
                            unit.stats.mshr_stall_cycles += gap
                            if unit.obs is not None:
                                unit.obs.emit(
                                    "rtunit.stall",
                                    last_step[i] + 1,
                                    f"RT{unit.sm_id}",
                                    dur=gap,
                                    args={"reason": "mshr"},
                                )
                    unit.step(cycle)
                    last_step[i] = cycle
                    wakes[i], kinds[i] = unit.next_wake_kind(cycle)
            # A unit only goes idle inside a step (retirement, degenerate
            # admits), so the completion check is needed only on buckets
            # that stepped someone.
            if stepped and not any(unit.busy() for unit in units):
                # The cycle counter rests one past the last worked cycle.
                cycle += 1
                break
            # Test-FIFO and hit-response due cycles are folded into each
            # unit's wake by ``next_wake`` (appends always precede a
            # fresh wake), so the wake list alone bounds the jump.
            nxt = next_cycle()
            for wake in wakes:
                if wake is not None and (nxt is None or wake < nxt):
                    nxt = wake
            if timeline is not None:
                sample = timeline.next_sample_cycle
                if nxt is None or sample < nxt:
                    nxt = sample
            if nxt is None:
                raise SimulationLimitError(
                    "work remains but no events or unit activity are "
                    "pending; likely a lost memory response"
                )
            cycle = nxt if nxt > cycle else cycle + 1
        return cycle

    def run_frame(
        self,
        traces: Sequence[RayTrace],
        bvh: FlatBVH,
        layout: NodeLayout,
    ) -> int:
        """Load one frame's traces, run it, and return the frame's cycles.

        Caches (and the prefetcher's state) stay warm between frames —
        the real-time rendering regime where consecutive frames revisit
        mostly the same treelets.
        """
        start = getattr(self, "_current_cycle", 0)
        self.load(traces, bvh, layout)
        self.run()
        return self._current_cycle - start

    def _collect(self, cycles: int) -> SimStats:
        stats = SimStats(cycles=max(1, cycles))
        stats.ray_count = getattr(self, "_ray_count", 0)
        stats.warp_count = getattr(self, "_warp_count", 0)
        warp_latency = 0
        warps_retired = 0
        for unit in self.units:
            stats.visits_completed += unit.stats.visits_completed
            stats.node_fetches += unit.stats.node_fetches_issued
            stats.primitive_fetches += unit.stats.primitive_fetches_issued
            stats.prefetches_issued += unit.stats.prefetches_issued
            stats.busy_cycles += unit.stats.busy_cycles
            stats.stall_cycles += unit.stats.stall_cycles
            stats.mshr_stall_cycles += unit.stats.mshr_stall_cycles
            warp_latency += unit.stats.warp_latency_total
            warps_retired += unit.stats.warps_retired
        if warps_retired:
            stats.warp_latency_avg = warp_latency / warps_retired
        memsys = self.memsys
        stats.avg_node_demand_latency = memsys.node_demand_latency.average
        stats.avg_demand_latency = memsys.all_demand_latency.average
        stats.dram_utilization = memsys.dram.stats.utilization(stats.cycles)
        stats.dram_accesses = memsys.dram.stats.accesses
        stats.dram_imbalance = memsys.dram.stats.imbalance()
        stats.dram_per_partition = list(memsys.dram.stats.per_partition_accesses)
        stats.l2_bytes = memsys.l2_traffic.total_bytes
        stats.l2_demand_accesses = memsys.l2_traffic.demand_accesses
        stats.l2_prefetch_accesses = memsys.l2_traffic.prefetch_accesses
        stats.stream_buffer_hits = memsys.stream_buffer_hits
        stats.l1 = merge_cache_stats([l1.stats for l1 in memsys.l1s])
        stats.l2 = memsys.l2.stats
        stats.effectiveness = memsys.finalize()
        decisions = 0
        agreements = 0
        for unit in self.units:
            voter = getattr(unit.prefetcher, "voter", None)
            if voter is not None:
                decisions += voter.stats.decisions
                agreements += voter.stats.agreements
        stats.voter_decisions = decisions
        stats.voter_accuracy = (agreements / decisions) if decisions else 0.0
        return stats
