"""Per-ray and per-warp state inside the RT unit's warp buffer.

A :class:`RayTask` replays one ray's traversal trace: fetch the next
node, run the box/primitive tests, advance.  Successive node fetches are
*dependent* (pointer chasing) — visit ``i+1`` cannot issue until visit
``i`` has been fetched and tested — which is exactly the serialization
treelet prefetching attacks.

A :class:`WarpSlot` groups up to 32 ray tasks and maintains the treelet
occupancy counters the majority voter and the treelet schedulers read.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Dict, List, Optional

from ..bvh import FlatBVH, NodeLayout, PRIMITIVE_SIZE_BYTES
from ..traversal import RayTrace


class RayState(Enum):
    FETCH_READY = "fetch_ready"  # next node load can issue
    WAIT_NODE = "wait_node"  # node load outstanding
    PRIM_READY = "prim_ready"  # leaf primitive loads can issue
    WAIT_PRIM = "wait_prim"  # primitive loads outstanding
    TESTING = "testing"  # op units busy on this ray
    DONE = "done"


class RayTask:
    """One ray's traversal replay state.

    Per-visit addresses/treelets/lookahead are structure-of-arrays lists
    indexed by ``cursor``; the hot paths in the RT unit index them
    directly instead of chasing layout dicts on every fetch.  Callers
    that precompute whole batches (``GpuModel.load`` gathers them with
    one vectorized table lookup per trace) pass ``addresses`` and
    ``treelets`` in; otherwise they are derived here per ray.

    A ``__slots__`` class (not a dataclass): the replay engine reads
    ``state``/``cursor``/the SoA lists on every issue, response, and
    test completion, so the slot layout is a measurable win.
    """

    __slots__ = (
        "trace",
        "bvh",
        "layout",
        "line_bytes",
        "cursor",
        "state",
        "prim_lines_pending",
        "prim_lines_outstanding",
        "slot_index",
        "addresses",
        "treelets",
        "lookahead",
    )

    def __init__(
        self,
        trace: RayTrace,
        bvh: FlatBVH,
        layout: NodeLayout,
        line_bytes: int,
        cursor: int = 0,
        state: RayState = RayState.FETCH_READY,
        prim_lines_pending: Optional[List[int]] = None,
        prim_lines_outstanding: int = 0,
        slot_index: int = 0,
        addresses: Optional[List[int]] = None,
        treelets: Optional[List[int]] = None,
        lookahead: Optional[List[int]] = None,
    ) -> None:
        self.trace = trace
        self.bvh = bvh
        self.layout = layout
        self.line_bytes = line_bytes
        self.cursor = cursor
        self.state = state
        #: distinct lines still to issue for the current leaf's triangles.
        self.prim_lines_pending = (
            [] if prim_lines_pending is None else prim_lines_pending
        )
        self.prim_lines_outstanding = prim_lines_outstanding
        #: position within the owning warp (set by WarpSlot); the batched
        #: issue path uses it to keep the warp's ready-ray bitmask current.
        self.slot_index = slot_index
        if not trace.visits:
            self.state = RayState.DONE
        #: byte address of each visit's node (SoA, parallel to
        #: trace.visits).
        if addresses is None:
            addresses = [layout.address_of(v.node_id) for v in trace.visits]
        self.addresses = addresses
        #: treelet id of each visit's node (SoA, -1 = no treelet).
        if treelets is None:
            treelets = [layout.treelet_of(v.node_id) for v in trace.visits]
        self.treelets = treelets
        #: per visit, the next *different* treelet the ray will enter (-1
        #: if none).  Hardware knows this from the top of the ray's
        #: otherTreeletStack; the trace model recovers it by scanning the
        #: visit sequence.  The majority voter votes on this lookahead so
        #: prefetches lead demand by one treelet transit.
        if lookahead is None:
            n = len(treelets)
            lookahead = [-1] * n
            for index in range(n - 2, -1, -1):
                if treelets[index + 1] != treelets[index]:
                    lookahead[index] = treelets[index + 1]
                else:
                    lookahead[index] = lookahead[index + 1]
        self.lookahead = lookahead

    @property
    def done(self) -> bool:
        return self.state is RayState.DONE

    def current_visit(self):
        return self.trace.visits[self.cursor]

    def current_node_address(self) -> int:
        return self.addresses[self.cursor]

    def current_treelet(self) -> int:
        """Treelet of the node this ray is fetching / about to fetch."""
        if self.done:
            return -1
        return self.treelets[self.cursor]

    def lookahead_treelet(self) -> int:
        """The next *different* treelet this ray will enter (-1 if none)."""
        if self.done:
            return -1
        return self.lookahead[self.cursor]

    def primitive_lines(self) -> List[int]:
        """Distinct line addresses covering the current leaf's triangles.

        The result depends only on the leaf node and the line size, so it
        is memoized on the shared layout (every ray of an experiment
        revisiting a leaf recomputes nothing).  Callers mutate the
        returned list (it becomes ``prim_lines_pending``), so a copy is
        handed out.
        """
        node_id = self.trace.visits[self.cursor].node_id
        cache = self.layout.__dict__.setdefault("_prim_lines_cache", {})
        key = (node_id, self.line_bytes)
        cached = cache.get(key)
        if cached is None:
            node = self.bvh.node(node_id)
            lines = []
            for prim_id in node.primitive_ids:
                addr = self.layout.primitive_address(prim_id)
                first = addr // self.line_bytes
                last = (addr + PRIMITIVE_SIZE_BYTES - 1) // self.line_bytes
                lines.extend(range(first, last + 1))
            # Deduplicate, preserving order.
            seen = set()
            unique = []
            for line in lines:
                if line not in seen:
                    seen.add(line)
                    unique.append(line)
            cached = [line * self.line_bytes for line in unique]
            cache[key] = cached
        return list(cached)

    def advance(self) -> None:
        """Move past the current visit (all its work is complete)."""
        self.cursor += 1
        if self.cursor >= len(self.trace.visits):
            self.state = RayState.DONE
        else:
            self.state = RayState.FETCH_READY


class WarpSlot:
    """One warp-buffer entry: up to ``warp_size`` ray tasks plus counters.

    ``alive_treelet_counts`` counts, per treelet, unfinished rays whose
    *lookahead* (next different) treelet is that treelet — the majority
    voter's input.  ``ready_treelet_counts`` counts issue-ready rays by
    the treelet of their *current* fetch target — the treelet
    schedulers' input (those rays benefit from the prefetched treelet
    right now).
    """

    def __init__(
        self,
        warp_id: int,
        rays: List[RayTask],
        entry_cycle: int,
        shared_votes: Optional[Dict[int, int]] = None,
    ) -> None:
        self.warp_id = warp_id
        self.rays = rays
        self.entry_cycle = entry_cycle
        self.alive_treelet_counts: Dict[int, int] = defaultdict(int)
        self.ready_treelet_counts: Dict[int, int] = defaultdict(int)
        self.ready_count = 0
        self.done_count = 0
        #: bitmask over ``rays`` of issue-ready rays (FETCH_READY or
        #: PRIM_READY) — always ``ready_count`` bits set.  The batched
        #: issue path iterates set bits instead of scanning the list.
        self.ready_mask = 0
        #: optional unit-level merged vote counts this slot mirrors its
        #: alive-count mutations into, so the majority voter reads one
        #: dict instead of re-merging every warp per decision.  Kept
        #: exactly equal to the sum of the buffer warps' counts (zero
        #: entries are deleted, matching :meth:`_dec`).
        self._shared_votes = shared_votes
        for index, ray in enumerate(rays):
            ray.slot_index = index
            if ray.done:
                self.done_count += 1
                continue
            vote = ray.lookahead_treelet()
            if vote != -1:
                self.alive_treelet_counts[vote] += 1
                if shared_votes is not None:
                    shared_votes[vote] = shared_votes.get(vote, 0) + 1
            if ray.state is RayState.FETCH_READY:
                self.ready_count += 1
                self.ready_mask |= 1 << index
                self.ready_treelet_counts[ray.current_treelet()] += 1

    @property
    def done(self) -> bool:
        return self.done_count >= len(self.rays)

    def trace_args(self) -> Dict[str, int]:
        """Event payload for this warp's trace events (repro.obs)."""
        return {
            "warp_id": self.warp_id,
            "rays": len(self.rays),
            "done": self.done_count,
            "entry_cycle": self.entry_cycle,
        }

    # -- counter maintenance (called by the RT unit on transitions) ------

    def note_ready(self, ray: RayTask) -> None:
        self.ready_count += 1
        self.ready_mask |= 1 << ray.slot_index
        # ``ray.current_treelet()`` inlined: callers transition the ray
        # to FETCH_READY / PRIM_READY immediately before this, so the
        # done branch is unreachable and the cursor is in range.
        self.ready_treelet_counts[ray.treelets[ray.cursor]] += 1

    def note_unready(self, ray: RayTask, treelet: int) -> None:
        self.ready_count -= 1
        self.ready_mask &= ~(1 << ray.slot_index)
        self._dec(self.ready_treelet_counts, treelet)

    def note_vote_change(self, old: int, new: int) -> None:
        """The ray's lookahead treelet moved from ``old`` to ``new``."""
        if old != -1:
            self._dec(self.alive_treelet_counts, old)
        if new != -1:
            self.alive_treelet_counts[new] += 1
        shared = self._shared_votes
        if shared is not None:
            if old != -1:
                count = shared[old] - 1
                if count <= 0:
                    del shared[old]
                else:
                    shared[old] = count
            if new != -1:
                shared[new] = shared.get(new, 0) + 1

    def note_ray_done(self, old_vote: int) -> None:
        if old_vote != -1:
            self._dec(self.alive_treelet_counts, old_vote)
            shared = self._shared_votes
            if shared is not None:
                count = shared[old_vote] - 1
                if count <= 0:
                    del shared[old_vote]
                else:
                    shared[old_vote] = count
        self.done_count += 1

    @staticmethod
    def _dec(counts: Dict[int, int], key: int) -> None:
        counts[key] -= 1
        if counts[key] <= 0:
            del counts[key]

    def ready_rays(self) -> List[RayTask]:
        return [
            ray
            for ray in self.rays
            if ray.state in (RayState.FETCH_READY, RayState.PRIM_READY)
        ]

    def winner_treelet(self) -> Optional[int]:
        """This warp's most common next-treelet (the level-1 voter)."""
        if not self.alive_treelet_counts:
            return None
        # Deterministic tie-break: highest count, then lowest treelet id.
        return min(
            self.alive_treelet_counts,
            key=lambda t: (-self.alive_treelet_counts[t], t),
        )
