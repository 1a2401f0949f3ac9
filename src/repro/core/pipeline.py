"""End-to-end pipeline: scene -> BVH -> treelets -> traces -> timing sim.

This is the library's main entry point.  A :class:`Technique` names one
point in the paper's design space (traversal algorithm, memory layout,
prefetcher, heuristic, scheduler, voter, treelet size);
:func:`run_experiment` evaluates it on one scene and returns timing,
memory, power, and traversal statistics.

All heavyweight intermediate artifacts (BVHs, ray populations, traces,
decompositions, results) go through one two-tier :class:`ArtifactStore`
(memory, then the optional disk cache), so a parameter sweep over one
scene pays scene/BVH construction once.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..bvh import (
    BuildConfig,
    FlatBVH,
    NodeLayout,
    build_wide_bvh,
    compute_tree_stats,
    dfs_layout,
)
from ..bvh.stats import TreeStats
from ..geometry import Ray
from ..gpusim import GpuModel, REPLAY_BACKENDS, SimStats
from ..power import PowerReport, evaluate_power
from ..prefetch import (
    AdaptiveThrottle,
    GhbPrefetcher,
    MajorityVoter,
    MtaPrefetcher,
    PrefetchHeuristic,
    StridePrefetcher,
    StreamPrefetcher,
    TreeletAddressMap,
    TreeletPrefetcher,
)
from ..obs.spans import span as _span
from ..scenes import RayGenConfig, build_scene, generate_rays
from ..scenes import library as _scene_library
from ..traversal import (
    DEFERRED_ORDERS,
    RayTrace,
    TraversalSummary,
    summarize_traces,
    traverse_dfs_batch,
    traverse_dfs_packet,
    traverse_forest_jobs,
    traverse_two_stack_batch,
    traverse_two_stack_packet,
)
from ..treelet import (
    DEFAULT_TREELET_BYTES,
    FORMATION_STRATEGIES,
    TreeletDecomposition,
    build_mapping_table,
    form_treelets,
    treelet_layout,
)
from .config import GpuConfig, default_config, paper_config, smoke_config

TRAVERSAL_KINDS = ("dfs", "treelet")
LAYOUT_KINDS = ("dfs", "treelet")
PREFETCH_KINDS = (None, "treelet", "mta", "stride", "stream", "ghb")


@dataclass(frozen=True)
class Technique:
    """One configuration of the paper's design space."""

    traversal: str = "dfs"
    deferred_order: str = "nearest"
    layout: str = "dfs"
    layout_stride: int = 0
    prefetch: Optional[str] = None
    heuristic: PrefetchHeuristic = field(default_factory=PrefetchHeuristic)
    scheduler: str = "baseline"
    treelet_bytes: int = DEFAULT_TREELET_BYTES
    formation: str = "bfs"  # treelet formation strategy (Section 3.1)
    voter_mode: str = "full"
    voter_latency: int = 0
    mapping_mode: Optional[str] = None
    adaptive: bool = False  # Section 7.1 self-tuning throttle

    def __post_init__(self) -> None:
        if self.traversal not in TRAVERSAL_KINDS:
            raise ValueError(f"unknown traversal {self.traversal!r}")
        if self.deferred_order not in DEFERRED_ORDERS:
            raise ValueError(f"unknown deferred order {self.deferred_order!r}")
        if self.layout not in LAYOUT_KINDS:
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.prefetch not in PREFETCH_KINDS:
            raise ValueError(f"unknown prefetcher {self.prefetch!r}")
        if self.layout_stride < 0:
            raise ValueError("layout stride must be non-negative")
        if self.prefetch == "treelet" and self.traversal != "treelet":
            raise ValueError(
                "the treelet prefetcher requires treelet-based traversal"
            )
        if self.mapping_mode is not None:
            if self.layout != "dfs" or self.prefetch != "treelet":
                raise ValueError(
                    "mapping modes model an unmodified (dfs) BVH layout "
                    "with the treelet prefetcher"
                )
        if self.layout_stride and self.layout != "treelet":
            raise ValueError("layout_stride applies to the treelet layout")
        if self.formation not in FORMATION_STRATEGIES:
            raise ValueError(f"unknown formation strategy {self.formation!r}")
        if self.adaptive and self.prefetch != "treelet":
            raise ValueError(
                "the adaptive throttle applies to the treelet prefetcher"
            )

    @property
    def uses_treelets(self) -> bool:
        return (
            self.traversal == "treelet"
            or self.layout == "treelet"
            or self.prefetch == "treelet"
        )

    def label(self) -> str:
        parts = [self.traversal]
        if self.prefetch:
            parts.append(self.prefetch)
            if self.prefetch == "treelet":
                parts.append(self.heuristic.label())
        if self.scheduler != "baseline":
            parts.append(self.scheduler.upper())
        return "+".join(parts)


#: The paper's baseline RT unit: DFS traversal, stock layout, no prefetch.
BASELINE = Technique()

#: The headline configuration of Figure 7: treelet traversal + prefetch,
#: ALWAYS heuristic, PMR scheduler, 512 B treelets, repacked layout.
TREELET_PREFETCH = Technique(
    traversal="treelet",
    layout="treelet",
    prefetch="treelet",
    scheduler="pmr",
)

#: Treelet traversal alone (Figure 9's bottom stack).
TREELET_TRAVERSAL_ONLY = Technique(traversal="treelet", layout="treelet")


@dataclass(frozen=True)
class Scale:
    """Workload magnitude: scene size, image size, GPU size."""

    name: str
    scene_scale: float
    width: int
    height: int
    secondary: bool = True

    def raygen(self, seed: int = 0) -> RayGenConfig:
        return RayGenConfig(
            width=self.width,
            height=self.height,
            secondary=self.secondary,
            seed=seed,
        )

    def gpu_config(self) -> GpuConfig:
        if self.name == "smoke":
            return smoke_config()
        if self.name == "paper":
            return paper_config()
        return default_config()


SMOKE = Scale("smoke", scene_scale=0.05, width=8, height=8)
DEFAULT = Scale("default", scene_scale=1.0, width=16, height=16)
FULL = Scale("full", scene_scale=1.0, width=32, height=32)
#: Table 1 verbatim (8 SMs, 64 KB L1, 3 MB L2) at the paper's 32x32
#: resolution.  With our (small) procedural scenes most trees become
#: cache-resident here — useful for sanity checks like "WKND gains
#: nothing", not for headline numbers.
PAPER = Scale("paper", scene_scale=1.0, width=32, height=32)


#: Every named scale, by the name the CLI, API and service accept.
SCALES: Dict[str, Scale] = {
    scale.name: scale for scale in (SMOKE, DEFAULT, FULL, PAPER)
}


def scale_from_env(default: Scale = DEFAULT) -> Scale:
    """Pick the scale from ``REPRO_SCALE`` (smoke/default/full/paper)."""
    name = os.environ.get("REPRO_SCALE", "").strip().lower()
    return SCALES.get(name, default)


#: Trace-generation backends.  Both emit bit-identical ``RayTrace``
#: lists (same visit order, test counts, and hits); "vectorized" is the
#: numpy packet driver, "scalar" the pure-Python reference it is
#: verified against.
TRACE_BACKENDS = ("vectorized", "scalar")

_TRACE_BACKEND_OVERRIDE: Optional[str] = None


def set_trace_backend(backend: Optional[str]) -> None:
    """Force a trace backend for this process (None reverts to the
    ``REPRO_TRACE_BACKEND`` environment default)."""
    global _TRACE_BACKEND_OVERRIDE
    if backend is not None and backend not in TRACE_BACKENDS:
        raise ValueError(f"unknown trace backend {backend!r}")
    _TRACE_BACKEND_OVERRIDE = backend


def trace_backend_from_env() -> str:
    """The active trace backend: :func:`set_trace_backend` override,
    else ``REPRO_TRACE_BACKEND``, else "vectorized"."""
    if _TRACE_BACKEND_OVERRIDE is not None:
        return _TRACE_BACKEND_OVERRIDE
    name = os.environ.get("REPRO_TRACE_BACKEND", "").strip().lower()
    return name if name in TRACE_BACKENDS else "vectorized"


_REPLAY_BACKEND_OVERRIDE: Optional[str] = None


def set_replay_backend(backend: Optional[str]) -> None:
    """Force a replay engine for this process (None reverts to the
    ``REPRO_REPLAY_BACKEND`` environment default).  Both engines produce
    bit-identical :class:`~repro.gpusim.SimStats`."""
    global _REPLAY_BACKEND_OVERRIDE
    if backend is not None and backend not in REPLAY_BACKENDS:
        raise ValueError(f"unknown replay backend {backend!r}")
    _REPLAY_BACKEND_OVERRIDE = backend


def replay_backend_from_env() -> Optional[str]:
    """The process-wide replay-engine choice: :func:`set_replay_backend`
    override, else ``REPRO_REPLAY_BACKEND``, else None (meaning the
    :class:`~repro.core.config.GpuConfig` default, "batched")."""
    if _REPLAY_BACKEND_OVERRIDE is not None:
        return _REPLAY_BACKEND_OVERRIDE
    name = os.environ.get("REPRO_REPLAY_BACKEND", "").strip().lower()
    return name if name in REPLAY_BACKENDS else None


def effective_replay_backend(backend: Optional[str] = None) -> str:
    """The replay engine a run with ``replay_backend=backend`` would use,
    resolved all the way down: explicit argument, else the process
    override / ``REPRO_REPLAY_BACKEND``, else the
    :class:`~repro.core.config.GpuConfig` default ("batched").  Reports
    and the serve metrics surface this so artifacts record which engine
    produced them (the engines are bit-identical; this is provenance,
    not a result-affecting knob)."""
    if backend is not None:
        if backend not in REPLAY_BACKENDS:
            raise ValueError(f"unknown replay backend {backend!r}")
        return backend
    return replay_backend_from_env() or GpuConfig().replay_backend


@dataclass
class ExperimentResult:
    """Everything one (scene, technique) evaluation produced."""

    scene: str
    technique: Technique
    stats: SimStats
    power: PowerReport
    traversal: TraversalSummary
    tree: TreeStats
    treelet_count: int

    @property
    def cycles(self) -> int:
        return self.stats.cycles


# ---------------------------------------------------------------------------
# Memoized workload construction.
# ---------------------------------------------------------------------------

#: Artifact kinds the store holds: kind -> (the :data:`BUILD_COUNTS`
#: entry a construction bumps, whether it spills to the on-disk cache).
#: A query workload's ray population is its compiled plan: counted as
#: rays, but cheap and deterministic, so process-local only.  Results
#: are memory-only and uncounted.
_KINDS: Dict[str, Tuple[Optional[str], bool]] = {
    "bvh": ("bvh", True),
    "rays": ("rays", True),
    "query_plan": ("rays", False),
    "decomposition": ("decomposition", True),
    "traces": ("traces", True),
    "result": (None, False),
}


def _artifact_cache():
    """The process-wide on-disk artifact cache, or None when disabled.

    Imported lazily: :mod:`repro.exec` depends on this module, so the
    dependency must not exist at import time.
    """
    from ..exec.cache import get_artifact_cache

    return get_artifact_cache()


class ArtifactStore:
    """Two-tier artifact lookup: an unbounded in-memory tier in front of
    the process-wide on-disk :class:`~repro.exec.cache.ArtifactCache`.

    Every artifact is named by one key, the fingerprint of its kind and
    inputs document (every input it depends on), so it is memoized in
    memory under exactly the name it is stored under on disk.
    """

    def __init__(self) -> None:
        self._memory: Dict[str, Dict[str, object]] = {
            kind: {} for kind in _KINDS
        }
        #: Artifacts actually *constructed* this process (memory or disk
        #: hits do not count); the scene entry is bumped by
        #: :func:`get_scene`, whose memo lives in the scene library.
        self.builds: Dict[str, int] = dict.fromkeys(
            ("scene", "bvh", "rays", "traces", "decomposition"), 0
        )

    @staticmethod
    def key(kind: str, inputs: Dict[str, object]) -> str:
        from ..exec.cache import fingerprint

        return fingerprint(kind, inputs)

    def lookup(self, kind: str, inputs: Dict[str, object]):
        """The artifact from memory, else from disk (kept in memory from
        then on), else None."""
        key = self.key(kind, inputs)
        memory = self._memory[kind]
        artifact = memory.get(key)
        if artifact is None and _KINDS[kind][1]:
            cache = _artifact_cache()
            if cache is not None:
                artifact = cache.load(kind, key)
                if artifact is not None:
                    memory[key] = artifact
        return artifact

    def put(self, kind: str, inputs: Dict[str, object], artifact):
        """Record a freshly constructed artifact: count it, spill it to
        disk, and memoize it.  Returns the memoized artifact (an earlier
        one wins)."""
        counter, spilled = _KINDS[kind]
        if counter is not None:
            self.builds[counter] += 1
        key = self.key(kind, inputs)
        if spilled:
            cache = _artifact_cache()
            if cache is not None:
                cache.store(kind, key, artifact)
        return self._memory[kind].setdefault(key, artifact)

    def get(self, kind: str, inputs: Dict[str, object], build: Callable):
        """Memory hit, else disk load, else ``build()`` + :meth:`put`."""
        artifact = self.lookup(kind, inputs)
        if artifact is None:
            artifact = self.put(kind, inputs, build())
        return artifact

    def clear(self, kind: Optional[str] = None) -> None:
        """Drop the in-memory tier (one kind, or all); disk survives."""
        for name, memory in self._memory.items():
            if kind is None or name == kind:
                memory.clear()


#: The process-wide store every ``get_*`` helper reads through.
STORE = ArtifactStore()

#: Count of heavyweight artifacts actually *constructed* this process
#: (in-memory or on-disk cache hits do not count).  The repro.exec
#: tests assert a warm artifact cache keeps these at zero.
BUILD_COUNTS: Dict[str, int] = STORE.builds


def reset_build_counts() -> None:
    for key in BUILD_COUNTS:
        BUILD_COUNTS[key] = 0


def build_counts() -> Dict[str, int]:
    """Snapshot of :data:`BUILD_COUNTS` (artifacts constructed so far)."""
    return dict(BUILD_COUNTS)


#: Build parameters matching Embree's *effective* shape: the node format
#: is 6-wide (Figure 6) but real Embree trees fill ~3 child slots on
#: average, giving the Table 2 depth range.  Small leaves keep per-ray
#: visit counts in the paper's regime.
DEFAULT_BUILD = BuildConfig(max_leaf_size=2)
DEFAULT_BRANCHING = 3


def _scene_inputs(scene_name: str, scale: Scale) -> Dict[str, object]:
    """Inputs every derived artifact depends on."""
    return {
        "scene": scene_name,
        "scene_scale": scale.scene_scale,
        "build": asdict(DEFAULT_BUILD),
        "branching": DEFAULT_BRANCHING,
    }


def _ray_inputs(
    scene_name: str, scale: Scale, workload: str = "render"
) -> Dict[str, object]:
    """:func:`_scene_inputs` plus the ray population's parameters."""
    inputs = _scene_inputs(scene_name, scale)
    if workload == "render":
        # Unchanged for render so existing cached artifacts stay valid.
        inputs["raygen"] = asdict(scale.raygen())
        return inputs
    from ..queries.workloads import K_NEIGHBORS

    inputs["workload"] = workload
    inputs["queries"] = {
        "count": scale.width * scale.height,
        "k": K_NEIGHBORS if workload == "knn" else 0,
        "version": 1,
    }
    return inputs


def _decomposition_inputs(
    scene_name: str, scale: Scale, treelet_bytes: int, strategy: str
) -> Dict[str, object]:
    inputs = _scene_inputs(scene_name, scale)
    inputs["treelet_bytes"] = treelet_bytes
    inputs["formation"] = strategy
    return inputs


def _trace_inputs(
    scene_name: str,
    scale: Scale,
    traversal: str,
    treelet_bytes: int,
    deferred_order: str,
    formation: str,
    workload: str = "render",
) -> Dict[str, object]:
    """Inputs of one trace set.  Deliberately backend-agnostic: both
    backends produce bit-identical traces, so an entry is valid
    whichever backend built it."""
    inputs = _ray_inputs(scene_name, scale, workload)
    inputs["traversal"] = traversal
    if traversal == "treelet":
        inputs["treelet_bytes"] = treelet_bytes
        inputs["deferred_order"] = deferred_order
        inputs["formation"] = formation
    return inputs


def result_inputs(
    scene_name: str,
    technique: Technique,
    scale: Scale,
    workload: str = "render",
) -> Dict[str, object]:
    """Inputs of one memoized :func:`_run_experiment` result; also the
    identity :class:`repro.exec.Job` deduplicates and seeds under."""
    return {
        "scene": scene_name,
        "technique": asdict(technique),
        "scale": scale.name,
        "workload": workload,
    }


def get_scene(scene_name: str, scale: Scale):
    """The built scene.  The scene library's memo, which direct
    :func:`build_scene` callers share, is the only scene memo, so a
    construction is counted exactly when it misses."""
    key = (scene_name, scale.scene_scale)
    scene = _scene_library._SCENE_CACHE.get(key)
    if scene is None:
        scene = build_scene(*key)
        BUILD_COUNTS["scene"] += 1
    return scene


def get_bvh(scene_name: str, scale: Scale) -> FlatBVH:
    return STORE.get(
        "bvh",
        _scene_inputs(scene_name, scale),
        lambda: build_wide_bvh(
            get_scene(scene_name, scale).mesh.triangles(),
            config=DEFAULT_BUILD,
            branching_factor=DEFAULT_BRANCHING,
            name=scene_name,
        ),
    )


def get_query_plan(scene_name: str, scale: Scale, workload: str):
    """The compiled :class:`~repro.queries.QueryPlan` for a query
    workload ("knn"/"containment") at this scale.

    ``scale.width * scale.height`` sets the query count (the same knob
    that sizes the render ray population), keeping smoke/default/full
    proportions meaningful across workloads.  Plans are pure functions
    of (scene, scale, workload), so decode can always recompute the
    plan a trace set was compiled from.
    """
    from ..queries import compile_queries

    return STORE.get(
        "query_plan",
        _ray_inputs(scene_name, scale, workload),
        lambda: compile_queries(
            get_scene(scene_name, scale), workload, scale.width * scale.height
        ),
    )


def get_rays(
    scene_name: str, scale: Scale, workload: str = "render"
) -> List[Ray]:
    if workload != "render":
        return get_query_plan(scene_name, scale, workload).rays
    return STORE.get(
        "rays",
        _ray_inputs(scene_name, scale),
        lambda: generate_rays(
            get_scene(scene_name, scale).camera,
            get_bvh(scene_name, scale),
            scale.raygen(),
        ),
    )


def get_decomposition(
    scene_name: str,
    scale: Scale,
    treelet_bytes: int,
    strategy: str = "bfs",
) -> TreeletDecomposition:
    return STORE.get(
        "decomposition",
        _decomposition_inputs(scene_name, scale, treelet_bytes, strategy),
        lambda: form_treelets(
            get_bvh(scene_name, scale), treelet_bytes, strategy
        ),
    )


def _check_trace_backend(backend: Optional[str]) -> str:
    if backend is None:
        return trace_backend_from_env()
    if backend not in TRACE_BACKENDS:
        raise ValueError(f"unknown trace backend {backend!r}")
    return backend


def get_traces(
    scene_name: str,
    scale: Scale,
    traversal: str,
    treelet_bytes: int,
    deferred_order: str = "nearest",
    formation: str = "bfs",
    backend: Optional[str] = None,
    workload: str = "render",
) -> List[RayTrace]:
    """Functional traversal traces (the timing model's input).

    ``backend`` selects how the traces are generated — "vectorized"
    (numpy packet driver, the default via ``REPRO_TRACE_BACKEND``) or
    "scalar" (the pure-Python oracle).  The two are bit-identical, so
    the store key does not include the backend.  ``workload`` selects
    the ray population: "render" (camera + secondary) or a query
    workload compiled by :mod:`repro.queries`; traces come back in
    ray-population order, so query decode can map them positionally.
    """
    backend = _check_trace_backend(backend)

    def build() -> List[RayTrace]:
        bvh = get_bvh(scene_name, scale)
        rays = [
            ray.clone() for ray in get_rays(scene_name, scale, workload)
        ]
        vectorized = backend == "vectorized"
        if traversal == "dfs":
            if vectorized:
                return traverse_dfs_packet(rays, bvh)
            return traverse_dfs_batch(rays, bvh)
        decomposition = get_decomposition(
            scene_name, scale, treelet_bytes, formation
        )
        if vectorized:
            return traverse_two_stack_packet(
                rays, bvh, decomposition, deferred_order
            )
        return traverse_two_stack_batch(
            rays, bvh, decomposition, deferred_order
        )

    return STORE.get(
        "traces",
        _trace_inputs(
            scene_name, scale, traversal, treelet_bytes, deferred_order,
            formation, workload,
        ),
        build,
    )


def prewarm_traces(
    pairs,
    scale: Scale,
    backend: Optional[str] = None,
) -> int:
    """Batch-generate traces for many ``(scene_name, technique)`` pairs.

    Each pair may also be a ``(scene_name, technique, workload)``
    triple; plain pairs mean the "render" workload.

    With the vectorized backend every missing trace set rides in one
    merged ray forest (:func:`repro.traversal.traverse_forest_jobs`),
    so the fixed per-iteration numpy dispatch cost is paid once for the
    whole batch instead of once per (scene, technique) — this is the
    fast path sweeps use before assembling results.  Results land in
    the store exactly as if :func:`get_traces` had produced them one by
    one (they are bit-identical).  Returns the number of trace sets
    actually built.
    """
    backend = _check_trace_backend(backend)
    specs: Dict[str, tuple] = {}
    for pair in pairs:
        scene_name, technique = pair[0], pair[1]
        workload = pair[2] if len(pair) > 2 else "render"
        spec = (
            scene_name,
            technique.traversal,
            technique.treelet_bytes,
            technique.deferred_order,
            technique.formation,
            workload,
        )
        inputs = _trace_inputs(spec[0], scale, *spec[1:])
        specs.setdefault(STORE.key("traces", inputs), (spec, inputs))
    missing = [
        (spec, inputs)
        for spec, inputs in specs.values()
        if STORE.lookup("traces", inputs) is None
    ]
    if not missing:
        return 0
    if backend != "vectorized":
        for spec, _ in missing:
            get_traces(
                spec[0], scale, *spec[1:-1], backend=backend,
                workload=spec[-1],
            )
        return len(missing)
    jobs = []
    for spec, _ in missing:
        scene_name, traversal, treelet_bytes, order, formation, workload = spec
        bvh = get_bvh(scene_name, scale)
        rays = [
            ray.clone() for ray in get_rays(scene_name, scale, workload)
        ]
        decomposition = (
            get_decomposition(scene_name, scale, treelet_bytes, formation)
            if traversal == "treelet"
            else None
        )
        jobs.append((bvh, rays, decomposition, order))
    outputs = traverse_forest_jobs(jobs)
    for (_, inputs), traces in zip(missing, outputs):
        STORE.put("traces", inputs, traces)
    return len(missing)


def clear_caches() -> None:
    """Drop all memoized workload artifacts (tests use this).

    Only the in-memory tier and the scene library's memo are dropped;
    the on-disk artifact cache (:mod:`repro.exec.cache`), when active,
    survives and reloads them.
    """
    STORE.clear()
    _scene_library._SCENE_CACHE.clear()


# ---------------------------------------------------------------------------
# Experiment execution.
# ---------------------------------------------------------------------------


def _build_layout(
    technique: Technique,
    bvh: FlatBVH,
    decomposition: Optional[TreeletDecomposition],
) -> NodeLayout:
    if technique.layout == "treelet":
        assert decomposition is not None
        return treelet_layout(
            decomposition, stride_bytes=technique.layout_stride
        )
    layout = dfs_layout(bvh)
    if decomposition is not None:
        # Even with the stock layout, nodes know their treelet (the
        # Figure 6 child bits); the timing model reads it off the layout.
        layout.node_treelet = dict(decomposition.assignment)
    return layout


def _prefetcher_factory(
    technique: Technique,
    gpu: GpuConfig,
    layout: NodeLayout,
    decomposition: Optional[TreeletDecomposition],
):
    kind = technique.prefetch
    if kind is None:
        return None
    line_bytes = gpu.l1.line_bytes
    if kind == "treelet":
        assert decomposition is not None
        mapping_table = None
        if technique.mapping_mode is not None:
            mapping_table = build_mapping_table(decomposition, layout)
        address_map = TreeletAddressMap(
            decomposition, layout, line_bytes, mapping_table
        )

        def factory(_sm: int) -> TreeletPrefetcher:
            return TreeletPrefetcher(
                address_map,
                heuristic=technique.heuristic,
                voter=MajorityVoter(
                    technique.voter_mode, technique.voter_latency
                ),
                warp_size=gpu.warp_size,
                warp_buffer_size=gpu.warp_buffer_size,
                mapping_mode=technique.mapping_mode,
                adaptive=AdaptiveThrottle() if technique.adaptive else None,
            )

        return factory
    simple = {
        "mta": lambda: MtaPrefetcher(line_bytes=line_bytes),
        "stride": lambda: StridePrefetcher(line_bytes=line_bytes),
        "stream": lambda: StreamPrefetcher(line_bytes=line_bytes),
        "ghb": lambda: GhbPrefetcher(line_bytes=line_bytes),
    }[kind]
    return lambda _sm: simple()


def build_gpu_model(
    scene_name: str,
    technique: Technique,
    scale: Scale = DEFAULT,
    gpu_config: Optional[GpuConfig] = None,
    workload: str = "render",
    **model_kwargs,
):
    """Construct a loaded :class:`~repro.gpusim.GpuModel` without running it.

    For users who want to drive the timing model directly (attach a
    timeline sampler, single-step, run frames).  Returns
    ``(model, traces, bvh, layout)``; call ``model.run()`` to simulate.
    """
    from ..gpusim import GpuModel

    gpu = gpu_config or scale.gpu_config()
    bvh = get_bvh(scene_name, scale)
    decomposition = (
        get_decomposition(
            scene_name, scale, technique.treelet_bytes, technique.formation
        )
        if technique.uses_treelets
        else None
    )
    layout = _build_layout(technique, bvh, decomposition)
    traces = get_traces(
        scene_name,
        scale,
        technique.traversal,
        technique.treelet_bytes,
        technique.deferred_order,
        technique.formation,
        workload=workload,
    )
    model = GpuModel(
        gpu,
        scheduler_policy=technique.scheduler,
        prefetcher_factory=_prefetcher_factory(
            technique, gpu, layout, decomposition
        ),
        **model_kwargs,
    )
    model.load(traces, bvh, layout)
    return model, traces, bvh, layout


def _run_experiment(
    scene_name: str,
    technique: Technique = BASELINE,
    scale: Scale = DEFAULT,
    gpu_config: Optional[GpuConfig] = None,
    use_cache: bool = True,
    observer=None,
    replay_backend: Optional[str] = None,
    workload: str = "render",
) -> ExperimentResult:
    """Evaluate ``technique`` on ``scene_name`` at ``scale``.

    Canonical implementation behind :func:`repro.api.run`.  Pass an
    explicit ``gpu_config`` to override the scale's default (such
    runs are not memoized).  Pass a :class:`repro.obs.Observer` to trace
    the run (observed runs are never memoized, so the observer always
    sees a real simulation; attaching it does not change the results).
    ``replay_backend`` picks the replay engine ("batched"/"scalar");
    None defers to :func:`replay_backend_from_env` and then the
    :class:`GpuConfig` default.  Engines are bit-identical, so no
    store key includes the backend — a memoized result satisfies any
    backend.  ``workload`` picks the ray population ("render" or a
    :mod:`repro.queries` workload) and is part of the result key.
    """
    if workload != "render":
        from ..queries.workloads import check_scene_workload

        check_scene_workload(scene_name, workload)
    inputs = result_inputs(scene_name, technique, scale, workload)
    memoizable = use_cache and gpu_config is None and observer is None
    if replay_backend is None:
        replay_backend = replay_backend_from_env()
    elif replay_backend not in REPLAY_BACKENDS:
        raise ValueError(f"unknown replay backend {replay_backend!r}")
    with _span(
        "phase.cache_lookup", scene=scene_name, technique=technique.label()
    ) as lookup:
        hit = STORE.lookup("result", inputs) if memoizable else None
        if lookup is not None:
            lookup.args["hit"] = hit is not None
    if hit is not None:
        return hit
    gpu = gpu_config or scale.gpu_config()
    with _span("phase.scene_build", scene=scene_name, scale=scale.name):
        bvh = get_bvh(scene_name, scale)
        decomposition = (
            get_decomposition(
                scene_name, scale, technique.treelet_bytes,
                technique.formation,
            )
            if technique.uses_treelets
            else None
        )
        layout = _build_layout(technique, bvh, decomposition)
    with _span("phase.trace", scene=scene_name, scale=scale.name):
        traces = get_traces(
            scene_name,
            scale,
            technique.traversal,
            technique.treelet_bytes,
            technique.deferred_order,
            technique.formation,
            workload=workload,
        )
    with _span(
        "phase.replay", scene=scene_name, technique=technique.label()
    ):
        model = GpuModel(
            gpu,
            scheduler_policy=technique.scheduler,
            prefetcher_factory=_prefetcher_factory(
                technique, gpu, layout, decomposition
            ),
            observer=observer,
            replay_backend=replay_backend,
        )
        model.load(traces, bvh, layout)
        stats = model.run()
    result = ExperimentResult(
        scene=scene_name,
        technique=technique,
        stats=stats,
        power=evaluate_power(stats),
        traversal=summarize_traces(traces),
        tree=compute_tree_stats(bvh),
        treelet_count=decomposition.treelet_count if decomposition else 0,
    )
    if memoizable:
        result = STORE.put("result", inputs, result)
    return result


def run_experiment(
    scene_name: str,
    technique: Technique = BASELINE,
    scale: Scale = DEFAULT,
    gpu_config: Optional[GpuConfig] = None,
    use_cache: bool = True,
    observer=None,
) -> ExperimentResult:
    """Deprecated alias for :func:`repro.api.run` (same results).

    Kept as a thin shim for existing callers; new code should use the
    :mod:`repro.api` facade.
    """
    from .deprecation import warn_once

    warn_once(
        "repro.core.pipeline.run_experiment",
        "repro.core.pipeline.run_experiment is deprecated; "
        "use repro.api.run",
    )
    return _run_experiment(
        scene_name,
        technique,
        scale,
        gpu_config=gpu_config,
        use_cache=use_cache,
        observer=observer,
    )


def speedup(baseline: ExperimentResult, candidate: ExperimentResult) -> float:
    """Cycle-ratio speedup of ``candidate`` over ``baseline`` (>1 = faster)."""
    if candidate.stats.cycles == 0:
        raise ValueError("candidate ran for zero cycles")
    return baseline.stats.cycles / candidate.stats.cycles
