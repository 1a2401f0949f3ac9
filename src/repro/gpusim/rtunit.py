"""The RT unit: warp buffer, memory scheduler, op units, prefetch port.

Per cycle the unit (1) admits one pending warp into the warp buffer if
there is space, (2) lets the warp scheduler pick a warp and issues up to
``mem_ports`` coalesced demand line loads for its ready rays, (3) issues
one queued prefetch if a port is left over ("when the memory scheduler
is not busy servicing demand loads"), and (4) ticks the prefetcher's
decision logic.

:meth:`RTUnit.step` is driven by the replay engine in
:class:`~repro.gpusim.gpu.GpuModel`, which steps a unit only on cycles
where it has actionable work.  The ready-ray scan walks a bitmask of
ready rays, an L1 resident hit is serviced inline (the response waits
on the unit's hit FIFO instead of the event heap), and box/primitive
test completions go through per-unit FIFO queues: their latencies are
constants, so due cycles are already in order.
:meth:`RTUnit.run_tests_due` delivers what is due before each step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..core.config import GpuConfig
from ..prefetch.base import Prefetcher
from .cache import AccessOutcome, emit_probe, first_hit_fill
from .event import EventQueue
from .memsys import MemorySystem, REGION_NODE, REGION_PRIMITIVE
from .scheduler import select_warp
from .warp import RayState, RayTask, WarpSlot


@dataclass
class RTUnitStats:
    node_fetches_issued: int = 0
    primitive_fetches_issued: int = 0
    prefetches_issued: int = 0
    visits_completed: int = 0
    warps_retired: int = 0
    warp_latency_total: int = 0
    busy_cycles: int = 0  # cycles with at least one demand issue
    stall_cycles: int = 0  # cycles with resident warps but no ready ray
    mshr_stall_cycles: int = 0  # ready ray but L1 MSHRs full


class RTUnit:
    """One SM's ray tracing accelerator."""

    def __init__(
        self,
        sm_id: int,
        config: GpuConfig,
        memsys: MemorySystem,
        events: EventQueue,
        scheduler_policy: str = "baseline",
        prefetcher: Optional[Prefetcher] = None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.memsys = memsys
        self.events = events
        self.scheduler_policy = scheduler_policy
        self.prefetcher = prefetcher or Prefetcher()
        self.pending_warps: Deque[List[RayTask]] = deque()
        self.buffer: List[WarpSlot] = []
        self.stats = RTUnitStats()
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None
        self._next_warp_id = 0
        #: bumped whenever warp-buffer vote state changes (voter gate).
        self.vote_version = 0
        #: set by event callbacks (memory responses, test completions)
        #: so the replay engine steps this unit in the same cycle the
        #: data lands.  The engine clears it.
        self.dirty = False
        #: op-unit pipelines: FIFOs of ``(due, warp, ray)``
        #: test completions.  Box and primitive test latencies are each
        #: a constant, so within one queue due cycles are appended in
        #: nondecreasing order and a deque replaces per-ray heap events.
        self._box_tests: Deque[Tuple[int, WarpSlot, RayTask]] = deque()
        self._prim_tests: Deque[Tuple[int, WarpSlot, RayTask]] = deque()
        #: L1-hit responses awaiting delivery, as
        #: ``(due, is_node, warp, rays, issue_cycle, line)``.  Hit latency
        #: is a constant, so due cycles are appended in nondecreasing
        #: order and a deque replaces per-response heap events.
        self._hit_responses: Deque[
            Tuple[int, bool, WarpSlot, List[RayTask], int, int]
        ] = deque()
        # Hot-loop constants, resolved once per unit.
        self._baseline_sched = scheduler_policy == "baseline"
        self._adaptive_feedback = (
            getattr(self.prefetcher, "adaptive", None) is not None
        )
        #: exactly the no-op base prefetcher: the step skips its
        #: (empty) hooks wholesale.  Exact-type test so every subclass
        #: keeps full behavior.
        self._null_prefetcher = type(self.prefetcher) is Prefetcher
        #: bound ``on_demand_issue`` when overridden, else None — the
        #: fused issue path calls through this to skip the base class's
        #: empty observer (the treelet prefetcher does not observe
        #: demand issues either).
        self._demand_hook = (
            None
            if type(self.prefetcher).on_demand_issue
            is Prefetcher.on_demand_issue
            else self.prefetcher.on_demand_issue
        )
        self._warp_buffer_size = config.warp_buffer_size
        self._mem_ports = config.mem_ports
        self._line_bytes = config.l1.line_bytes
        self._l1_latency = config.l1.latency
        self._box_latency = config.box_test_latency
        self._prim_latency = config.primitive_test_latency
        self._l1 = memsys.l1s[sm_id]
        self._tracker = memsys.trackers[sm_id]
        #: merged next-treelet vote counts over the buffer's warps,
        #: maintained incrementally by the WarpSlots; the majority voter
        #: reads this instead of re-merging per decision.
        self._alive_votes: Dict[int, int] = {}
        if hasattr(self.prefetcher, "vote_counts"):
            self.prefetcher.vote_counts = self._alive_votes

    # -- workload loading -------------------------------------------------

    def add_warp(self, rays: List[RayTask]) -> None:
        if len(rays) > self.config.warp_size:
            raise ValueError("warp exceeds the warp size")
        self.pending_warps.append(rays)

    def busy(self) -> bool:
        return bool(self.pending_warps) or bool(self.buffer)

    def ready_total(self) -> int:
        return sum(warp.ready_count for warp in self.buffer)

    def next_wake_kind(self, cycle: int):
        """When this unit must next be stepped, and what the cycles it
        skips until then count as; returns ``(wake, kind)``.

        ``wake`` is the earliest future cycle the unit has actionable
        work absent events: an admittable pending warp or an issue-ready
        ray with a free L1 MSHR (next cycle), the prefetcher's next
        self-scheduled activity, or the head of a test or hit-response
        FIFO.  ``None`` means the unit is purely event-driven until
        something marks it dirty.  A selectable warp held off by full L1
        MSHRs sleeps until a fill: fills are the only way MSHRs free up,
        and each fill dirties the unit.

        ``kind`` is what each skipped cycle would have counted: 0 =
        nothing (empty warp buffer), 1 = ``stall_cycles`` (resident
        warps, none selectable), 2 = ``mshr_stall_cycles`` (selectable
        warp held off by full L1 MSHRs).  It holds for the whole gap:
        any event that changes warp state dirties the unit and ends the
        gap at that event's cycle.
        """
        buffer = self.buffer
        ready = False
        for warp in buffer:
            if warp.ready_count:
                ready = True
                break
        wake: Optional[int] = None
        if self.pending_warps and len(buffer) < self._warp_buffer_size:
            wake = cycle + 1  # an admit can happen next cycle
        else:
            l1 = self._l1
            if ready and len(l1._mshrs) < l1._mshr_capacity:
                wake = cycle + 1
            if wake is None and not self._null_prefetcher:
                # Base prefetcher: queue_depth() is 0, so its
                # next_activity_cycle is always None — skip the call.
                wake = self.prefetcher.next_activity_cycle(
                    cycle, self.vote_version
                )
        tests = self._box_tests
        if tests:
            due = tests[0][0]
            if wake is None or due < wake:
                wake = due
        tests = self._prim_tests
        if tests:
            due = tests[0][0]
            if wake is None or due < wake:
                wake = due
        responses = self._hit_responses
        if responses:
            due = responses[0][0]
            if wake is None or due < wake:
                wake = due
        return wake, (2 if ready else (1 if buffer else 0))

    # -- per-cycle step -----------------------------------------------------

    def step(self, cycle: int) -> None:
        """One cycle of the unit: admit, issue demands, issue one
        prefetch on a leftover port, tick the prefetcher."""
        buffer = self.buffer
        stats = self.stats
        prefetcher = self.prefetcher
        if self.pending_warps and len(buffer) < self._warp_buffer_size:
            rays = self.pending_warps.popleft()
            slot = WarpSlot(
                self._next_warp_id, rays, cycle, shared_votes=self._alive_votes
            )
            self._next_warp_id += 1
            if slot.done:
                stats.warps_retired += 1
            else:
                buffer.append(slot)
                self.vote_version += 1
                if self.obs is not None:
                    self.obs.emit(
                        "warp.issue",
                        cycle,
                        f"SM{self.sm_id}",
                        args=slot.trace_args(),
                    )
        issued = 0
        if self._baseline_sched or prefetcher.last_prefetched_treelet is None:
            # ``select_warp``'s baseline arm, inlined: oldest ready warp.
            warp = None
            for candidate in buffer:
                if candidate.ready_count > 0:
                    warp = candidate
                    break
        else:
            warp = select_warp(
                self.scheduler_policy,
                buffer,
                prefetcher.last_prefetched_treelet,
            )
        if warp is not None and not self._l1.mshr_full():
            issued = self._issue_demand_lines(warp, cycle)
            if issued:
                stats.busy_cycles += 1
        elif warp is not None:
            stats.mshr_stall_cycles += 1
            if self.obs is not None:
                self.obs.emit(
                    "rtunit.stall", cycle, f"RT{self.sm_id}", dur=1,
                    args={"reason": "mshr"},
                )
        elif buffer:
            stats.stall_cycles += 1
            if self.obs is not None:
                self.obs.emit(
                    "rtunit.stall", cycle, f"RT{self.sm_id}", dur=1
                )
        if self._null_prefetcher:
            # Exactly the base prefetcher: pop_prefetch always returns
            # None and on_feedback/on_cycle are empty — skip them all.
            return
        if issued < self._mem_ports:
            request = prefetcher.pop_prefetch(cycle)
            if request is not None:
                stats.prefetches_issued += 1
                if self.obs is not None:
                    self.obs.emit(
                        "prefetch.issue",
                        cycle,
                        f"RT{self.sm_id}",
                        args={
                            "sm": self.sm_id,
                            "address": request.address,
                            "line": request.address // self._line_bytes,
                            "region": request.region,
                        },
                    )
                callback = request.on_complete
                if callback is not None:
                    # Completion callbacks can unblock the prefetcher
                    # (Strict Wait table loads): step this unit then.
                    def callback(at: int, done=callback) -> None:
                        self.dirty = True
                        done(at)

                self.memsys.access(
                    self.sm_id,
                    request.address,
                    cycle,
                    is_prefetch=True,
                    region=request.region,
                    callback=callback,
                )
        if self._adaptive_feedback:
            prefetcher.on_feedback(cycle, self._tracker.counts)
        prefetcher.on_cycle(cycle, buffer, self.vote_version)

    # -- demand path --------------------------------------------------------

    def _issue_demand_lines(self, warp: WarpSlot, cycle: int) -> int:
        """Issue coalesced line loads for the warp's ready rays.

        Rays of one warp touching the same line in the same cycle share a
        single L1 access (the GPU coalescer).  Returns lines issued.

        ``warp.ready_mask`` has exactly one bit set per ray in
        ``FETCH_READY`` or ``PRIM_READY``, so the scan walks only the
        ready rays, lowest slot first.  A ports-full skip leaves a ray's
        bit set, and the scan keeps going because later rays can still
        coalesce into already-claimed lines.

        An L1 resident hit is serviced inline (the probe's hit body plus
        the effectiveness classification, with its trace events) and the
        response is queued on the unit's hit FIFO; misses go through
        :meth:`MemorySystem.l1_access` with a callback that records the
        demand latency itself.
        """
        mask = warp.ready_mask
        if not mask:
            return 0
        ports = self._mem_ports
        line_bytes = self._line_bytes
        slot_rays = warp.rays
        ready_treelets = warp.ready_treelet_counts
        fetch_ready = RayState.FETCH_READY
        wait_node = RayState.WAIT_NODE
        wait_prim = RayState.WAIT_PRIM
        node_groups: Dict[int, Tuple[int, List[RayTask]]] = {}
        prim_groups: Dict[int, Tuple[int, List[RayTask]]] = {}
        claimed = 0
        claimed_mask = 0
        claimed_rays = 0

        while mask:
            low = mask & -mask
            mask -= low
            ray = slot_rays[low.bit_length() - 1]
            if ray.state is fetch_ready:
                address = ray.addresses[ray.cursor]
                line = address // line_bytes
                group = node_groups.get(line)
                if group is None:
                    if claimed >= ports:
                        continue
                    node_groups[line] = (address, [ray])
                    claimed += 1
                else:
                    group[1].append(ray)
            else:  # PRIM_READY
                pending = ray.prim_lines_pending
                if not pending:
                    continue
                while pending:
                    address = pending[0]
                    line = address // line_bytes
                    group = prim_groups.get(line)
                    if group is None:
                        if claimed >= ports:
                            break
                        prim_groups[line] = (address, [ray])
                        claimed += 1
                    else:
                        group[1].append(ray)
                    pending.pop(0)
                    ray.prim_lines_outstanding += 1
                if pending:
                    continue
            # The claim succeeded: the ray leaves the ready set.  This is
            # ``warp.note_unready`` inlined (mask bits are batched below).
            claimed_mask |= low
            claimed_rays += 1
            ray.state = wait_node if ray.state is fetch_ready else wait_prim
            treelet = ray.treelets[ray.cursor]
            count = ready_treelets[treelet] - 1
            if count <= 0:
                del ready_treelets[treelet]
            else:
                ready_treelets[treelet] = count
        if claimed_mask:
            warp.ready_mask &= ~claimed_mask
            warp.ready_count -= claimed_rays

        stats = self.stats
        sm_id = self.sm_id
        warp_id = warp.warp_id
        obs = self.obs
        l1 = self._l1
        l1_name = l1.name
        l1_access = self.memsys.l1_access
        demand_hook = self._demand_hook
        tracker = self._tracker
        lstats = l1.stats
        sets = l1._sets
        n_sets = l1._n_sets
        due = cycle + self._l1_latency
        responses = self._hit_responses
        hit = AccessOutcome.HIT
        for address, rays in node_groups.values():
            stats.node_fetches_issued += 1
            if demand_hook is not None:
                demand_hook(warp_id, address, cycle)
            line = address // line_bytes
            set_map = sets.get(line % n_sets)
            meta = set_map.get(line) if set_map is not None else None
            if meta is not None:
                # Resident hit, inlined from ``Cache.probe``: classify
                # on the pre-probe meta, then the probe's hit body.
                if obs is not None:
                    emit_probe(obs, cycle, l1_name, line, "hit", False,
                               first_hit_fill(meta, False))
                tracker.on_demand_probe(line, hit, meta, None)
                lstats.demand_accesses += 1
                lstats.demand_hits += 1
                if meta.filled_by_prefetch and not meta.demand_touched:
                    lstats.demand_hits_on_prefetched += 1
                meta.demand_touched = True
                set_map.move_to_end(line)
                responses.append((due, True, warp, rays, cycle, line))
            else:
                l1_access(
                    sm_id,
                    address,
                    cycle,
                    False,
                    self._node_miss_response(warp, rays, cycle, line),
                )
        for address, rays in prim_groups.values():
            stats.primitive_fetches_issued += 1
            if demand_hook is not None:
                demand_hook(warp_id, address, cycle)
            line = address // line_bytes
            set_map = sets.get(line % n_sets)
            meta = set_map.get(line) if set_map is not None else None
            if meta is not None:
                if obs is not None:
                    emit_probe(obs, cycle, l1_name, line, "hit", False,
                               first_hit_fill(meta, False))
                tracker.on_demand_probe(line, hit, meta, None)
                lstats.demand_accesses += 1
                lstats.demand_hits += 1
                if meta.filled_by_prefetch and not meta.demand_touched:
                    lstats.demand_hits_on_prefetched += 1
                meta.demand_touched = True
                set_map.move_to_end(line)
                responses.append((due, False, warp, rays, cycle, line))
            else:
                l1_access(
                    sm_id,
                    address,
                    cycle,
                    False,
                    self._prim_miss_response(warp, rays, cycle, line),
                )
        return claimed

    # -- response / op-unit path ---------------------------------------------

    def _node_miss_response(
        self, warp: WarpSlot, rays: List[RayTask], issue_cycle: int,
        line: int,
    ):
        """Response to a node fetch that missed the L1: records the
        demand latency (and its trace event), then starts each ray's
        box test or primitive fetches."""
        memsys = self.memsys
        all_lat = memsys.all_demand_latency
        node_lat = memsys.node_demand_latency

        def on_data(cycle: int) -> None:
            self.dirty = True
            if self.obs is not None:
                memsys.trace_demand(
                    self.sm_id, line, REGION_NODE, issue_cycle, cycle
                )
            latency = cycle - issue_cycle
            all_lat.total_cycles += latency
            all_lat.count += 1
            node_lat.total_cycles += latency
            node_lat.count += 1
            box_latency = self._box_latency
            box_tests = self._box_tests
            for ray in rays:
                visit = ray.trace.visits[ray.cursor]
                if visit.is_leaf and visit.primitive_count > 0:
                    ray.prim_lines_pending = ray.primitive_lines()
                    ray.prim_lines_outstanding = 0
                    ray.state = RayState.PRIM_READY
                    warp.note_ready(ray)
                else:
                    ray.state = RayState.TESTING
                    box_tests.append((cycle + box_latency, warp, ray))

        return on_data

    def _prim_miss_response(
        self, warp: WarpSlot, rays: List[RayTask], issue_cycle: int,
        line: int,
    ):
        memsys = self.memsys
        all_lat = memsys.all_demand_latency

        def on_data(cycle: int) -> None:
            self.dirty = True
            if self.obs is not None:
                memsys.trace_demand(
                    self.sm_id, line, REGION_PRIMITIVE, issue_cycle, cycle
                )
            all_lat.total_cycles += cycle - issue_cycle
            all_lat.count += 1
            prim_latency = self._prim_latency
            prim_tests = self._prim_tests
            for ray in rays:
                ray.prim_lines_outstanding -= 1
                if (
                    ray.state is RayState.WAIT_PRIM
                    and ray.prim_lines_outstanding == 0
                ):
                    ray.state = RayState.TESTING
                    prim_tests.append((cycle + prim_latency, warp, ray))

        return on_data

    def run_tests_due(self, cycle: int) -> None:
        """Deliver every queued hit response and test completion due.

        The replay engine calls this right after the event queue drains
        for the bucket, so responses and test completions land in the
        cycle they are due.  Within one cycle the deliveries commute
        with each other and with the bucket's heap events: they touch
        disjoint rays (a queued response's rays wait in WAIT_*, a queued
        test's ray is TESTING, a fill's waiters are other misses' rays)
        and all shared counters are additive.
        """
        responses = self._hit_responses
        if responses and responses[0][0] <= cycle:
            all_lat = self.memsys.all_demand_latency
            node_lat = self.memsys.node_demand_latency
            box_latency = self._box_latency
            prim_latency = self._prim_latency
            box_tests = self._box_tests
            prim_tests = self._prim_tests
            self.dirty = True
            obs = self.obs
            while responses and responses[0][0] <= cycle:
                due, is_node, warp, rays, issue, line = responses.popleft()
                if obs is not None:
                    self.memsys.trace_demand(
                        self.sm_id, line,
                        REGION_NODE if is_node else REGION_PRIMITIVE,
                        issue, due,
                    )
                latency = due - issue
                all_lat.total_cycles += latency
                all_lat.count += 1
                if is_node:
                    node_lat.total_cycles += latency
                    node_lat.count += 1
                    for ray in rays:
                        visit = ray.trace.visits[ray.cursor]
                        if visit.is_leaf and visit.primitive_count > 0:
                            ray.prim_lines_pending = ray.primitive_lines()
                            ray.prim_lines_outstanding = 0
                            ray.state = RayState.PRIM_READY
                            warp.note_ready(ray)
                        else:
                            ray.state = RayState.TESTING
                            box_tests.append((due + box_latency, warp, ray))
                else:
                    for ray in rays:
                        ray.prim_lines_outstanding -= 1
                        if (
                            ray.state is RayState.WAIT_PRIM
                            and ray.prim_lines_outstanding == 0
                        ):
                            ray.state = RayState.TESTING
                            prim_tests.append((due + prim_latency, warp, ray))
        # Drain due test completions inline: this runs once per
        # completed visit, so a call per completion would be the
        # engine's single largest fixed cost.
        stats = self.stats
        fetch_ready = RayState.FETCH_READY
        done_state = RayState.DONE
        for tests in (self._box_tests, self._prim_tests):
            while tests and tests[0][0] <= cycle:
                due, warp, ray = tests.popleft()
                self.dirty = True
                cursor = ray.cursor
                old_vote = ray.lookahead[cursor]
                stats.visits_completed += 1
                cursor += 1
                ray.cursor = cursor
                if cursor >= len(ray.trace.visits):
                    ray.state = done_state
                    warp.note_ray_done(old_vote)
                    if old_vote != -1:
                        self.vote_version += 1
                    if warp.done_count >= len(warp.rays):
                        self._retire(warp, due)
                else:
                    ray.state = fetch_ready
                    new_vote = ray.lookahead[cursor]
                    if new_vote != old_vote:
                        warp.note_vote_change(old_vote, new_vote)
                        self.vote_version += 1
                    warp.note_ready(ray)

    def _retire(self, warp: WarpSlot, cycle: int) -> None:
        self.buffer.remove(warp)
        self.stats.warps_retired += 1
        self.stats.warp_latency_total += cycle - warp.entry_cycle
        if self.obs is not None:
            self.obs.emit(
                "warp.retire",
                warp.entry_cycle,
                f"SM{self.sm_id}",
                dur=cycle - warp.entry_cycle,
                args=warp.trace_args(),
            )
