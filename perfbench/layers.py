"""Layer tracing for the benchmark's traced run.

The benchmark wraps each ``repro`` layer's public entry points from
outside the program, so no file under ``src/`` changes.  Every wrapped
call becomes a span (layer, start, end, parent span, thread) kept in
memory, and counts of the work a layer did are taken from the values it
returns, at the same boundary.  A layer's self time is its span's
duration minus the time its child spans cover, so the self times of all
layers plus the unattributed residual add up to the traced wall time.

The wrappers are installed only for the traced run; the end-to-end
numbers come from runs without them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional


def _trace_counts(traces) -> Dict[str, int]:
    return {
        "traversal.rays": len(traces),
        "traversal.node_visits": sum(t.nodes_visited for t in traces),
    }


def _forest_counts(outputs) -> Dict[str, int]:
    counts = {"traversal.rays": 0, "traversal.node_visits": 0}
    for traces in outputs:
        for name, value in _trace_counts(traces).items():
            counts[name] += value
    return counts


def _sim_counts(stats) -> Dict[str, int]:
    effectiveness = stats.effectiveness
    return {
        "gpusim.visits": stats.visits_completed,
        "gpusim.sim_cycles": stats.cycles,
        "gpusim.l1_demand_accesses": stats.l1.demand_accesses,
        "gpusim.l1_demand_hits": stats.l1.demand_hits,
        "gpusim.dram_accesses": stats.dram_accesses,
        "gpusim.stall_cycles": stats.stall_cycles,
        "gpusim.unit_cycles": (
            stats.busy_cycles + stats.stall_cycles + stats.mshr_stall_cycles
        ),
        "prefetch.issued": effectiveness.issued,
        "prefetch.useful": effectiveness.timely + effectiveness.late,
    }


def entry_points():
    """``(owner, attribute, layer, count)`` for every wrapped entry point.

    ``owner`` is the module or class whose attribute callers resolve at
    call time: the pipeline imports most layer functions by name, so
    those are wrapped where the pipeline looks them up.  Functions that
    only run inside another wrapped call (``traverse_dfs`` inside
    ``generate_rays``) are left unwrapped; their time belongs to the
    caller's layer.
    """
    import repro.bvh.wide as bvh_wide
    import repro.queries as queries
    from repro.core import pipeline
    from repro.exec.cache import ArtifactCache
    from repro.geometry.mesh import Mesh
    from repro.gpusim import GpuModel

    return [
        (pipeline, "build_scene", "scenes.build", None),
        (Mesh, "triangles", "scenes.build", None),
        (pipeline, "generate_rays", "scenes.raygen", None),
        (bvh_wide, "build_binary_bvh", "bvh.sah", None),
        (bvh_wide, "collapse_to_wide", "bvh.collapse",
         lambda bvh: {"bvh.nodes": len(bvh.nodes)}),
        (pipeline, "dfs_layout", "bvh.layout", None),
        (pipeline, "compute_tree_stats", "bvh.stats", None),
        (pipeline, "form_treelets", "treelet.form",
         lambda d: {"treelet.count": d.treelet_count}),
        (pipeline, "treelet_layout", "treelet.repack", None),
        (queries, "compile_queries", "queries.compile",
         lambda plan: {"queries.rays": plan.ray_count}),
        (pipeline, "traverse_dfs_packet", "traversal.trace", _trace_counts),
        (pipeline, "traverse_two_stack_packet", "traversal.trace",
         _trace_counts),
        (pipeline, "traverse_dfs_batch", "traversal.trace", _trace_counts),
        (pipeline, "traverse_two_stack_batch", "traversal.trace",
         _trace_counts),
        (pipeline, "traverse_forest_jobs", "traversal.trace",
         _forest_counts),
        (pipeline, "summarize_traces", "traversal.summarize", None),
        (GpuModel, "load", "gpusim.load", None),
        (GpuModel, "run", "gpusim.replay", _sim_counts),
        (ArtifactCache, "store", "exec.cache_store", None),
        (ArtifactCache, "load", "exec.cache_load", None),
    ]


def layer_names() -> List[str]:
    """Every layer an entry point maps to, in report order."""
    return list(dict.fromkeys(layer for _, _, layer, _ in entry_points()))


class LayerTracer:
    """Spans and per-layer self times for wrapped calls, per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self.spans: List[dict] = []
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.self_by_thread: Dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # frame = [span id, seconds covered by child spans]
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer._record(layer, frame, parent, start, end)
            if count is not None:
                tracer._count(count(result))
            return result

        return traced

    def _record(self, layer: str, frame: list, parent, start: float,
                end: float) -> None:
        self_time = (end - start) - frame[1]
        thread = threading.current_thread().name
        with self._lock:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + self_time
            self.self_by_thread[thread] = (
                self.self_by_thread.get(thread, 0.0) + self_time
            )
            self.spans.append({
                "id": frame[0], "parent": parent, "layer": layer,
                "start": start, "end": end, "thread": thread,
            })

    def _count(self, increments: Dict[str, int]) -> None:
        with self._lock:
            for name, value in increments.items():
                self.counts[name] = self.counts.get(name, 0) + value

    def install(self) -> None:
        """Wrap every entry point (undone by :meth:`uninstall`)."""
        for owner, attr, layer, count in entry_points():
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(layer, original, count))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
