"""The operations each workload runs, and the two cold workloads.

Why these workloads (the layer each one stresses is the one a later
change should be judged on):

* ``render-cold``: four paper render scenes at default scale, each under
  the baseline and treelet prefetch, from an empty in-memory memo with
  the disk artifact cache off.  BATH and SPRNG are the deep trees
  (depth 18 and 14), CRNVL is the scene ROADMAP profiles, and PARTY
  has no value recorded in fig07, so it is checked against the golden
  digest alone.  Scene and BVH build is most of the time here and
  replay a small share, so a build change shows here and a replay
  change should barely move it.
* ``queries-cold``: PTSUNI kNN and AMRTWO point containment, each under
  both techniques, cold.  PTSUNI is almost all replay, with simulations
  about ten times longer than a render run, so replay-engine changes
  show here.  AMRTWO is build-bound and is where treelet prefetch wins.
  PTSCLU is left out: one cold pass takes about 40 s on a 2-core host.
* ``serve-mix`` (``serve_mix.py``): open-loop requests into an
  in-process ``SimulationService``; the only workload that runs the
  request path, the result LRU, pool fan-out and disk cache writes.

The cold workloads' host times are scaled to a reference host speed.
On a shared host the CPU speed swings by up to ~1.8x within seconds, as
other tenants come and go, so raw pass times of the same code spread by
a quarter between runs.  While an operation runs, ``SpeedSampler``
times a fixed kernel (``probe_s``) ten times a second; the operation's
time, less the probes' own, is scaled by the mean of
``REFERENCE_PROBE_S / probe`` over those samples and the probes timed
just before and after it.  The raw times stay in the report file.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import math
import re
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from layers import LayerTracer

TECHNIQUES = ("baseline", "treelet-prefetch")
RENDER_SCENES = ("BATH", "SPRNG", "CRNVL", "PARTY")
QUERY_SCENES = (("PTSUNI", "knn"), ("AMRTWO", "containment"))
#: serve-mix sends new requests for these small render scenes at smoke
#: scale (at most a few hundred triangles; each builds in about 0.1 s).
SERVE_SCENES = ("WKND", "SHIP", "BUNNY", "CHSNT", "SPNZA", "REF", "CRNVL",
                "BATH")
SERVE_SCALE = "smoke"
#: ``(technique, with_baseline)`` of the new requests for each scene,
#: in the order they are sent.  The first builds the scene and fans its
#: two replays across the pool; the 1 KB treelets need a new treelet
#: formation; the other two replay once on the existing build.
SERVE_KINDS = (("treelet-prefetch", True), ("treelet-traversal", False),
               ("treelet-prefetch,bytes=1024", False),
               ("baseline,scheduler=pmr", False))
#: The untimed request serve-mix sends first, so that early repeats
#: have a finished request to name.
SERVE_PRIMER = ("PARTY", "baseline", False)
#: Seconds ``probe_s`` takes at the reference host speed.  A cold
#: workload's times read as what they would be on a host where the probe
#: takes this long (a shared 2-core cloud host takes 2.5 to 5 ms).
REFERENCE_PROBE_S = 0.003
#: How often ``SpeedSampler`` times the probe while an operation runs.
SAMPLE_INTERVAL_S = 0.1
#: Probes timed between two operations; their mean is one more sample
#: at each end of the operations on either side.
BOUNDARY_PROBES = 4
_PROBE_WORDS = [f"node{i % 37}_{i}" for i in range(400)]
_PROBE_PATTERN = re.compile(r"node(\d+)_(\d+)")


def probe_s() -> float:
    """Seconds for a fixed kernel that runs many kinds of code, as the
    pipeline does: sorting, dict, heap, JSON, regular-expression and
    string work plus small numpy sorts and reductions (about 2.5 ms on
    a quiet host).  It calls nothing in ``repro``, so no change to the
    program moves it; only the host's speed does.

    The variety matters.  A busy neighbour slows code with a large
    footprint more than a tight loop: while a CRNVL build or a PTSUNI
    replay slowed by a factor ``f``, a tight Python-and-numpy loop
    slowed by about ``f ** 0.8``, and this kernel by about ``f``.
    """
    start = time.perf_counter()
    for _ in range(2):
        rows = [(i * 7919 % 401, i, word)
                for i, word in enumerate(_PROBE_WORDS)]
        rows.sort(key=lambda row: (row[0], row[2]))
        table = {word: i for i, (_, _, word) in enumerate(rows)}
        hits = sum(table.get(word, 0) for word in _PROBE_WORDS[::3])
        heap = [row[0] for row in rows]
        heapq.heapify(heap)
        for _ in range(100):
            heapq.heappushpop(heap, hits % 97)
        json.loads(json.dumps({"rows": rows[:60], "hits": hits}))
        sum(int(match.group(1))
            for match in map(_PROBE_PATTERN.match, _PROBE_WORDS[:150]))
        ",".join(f"{a}:{b:.3f}" for a, b, _ in rows[:120])
        values = np.arange(2_000, dtype=np.float64)[::-1].copy()
        for _ in range(12):
            order = np.argsort(values, kind="stable")
            np.unique(values[order] % 97)
            np.cumsum(values[order[::5]])
            np.concatenate([values[:100], values[-100:]]).max()
    return time.perf_counter() - start


class SpeedSampler:
    """Times ``probe_s`` every ``SAMPLE_INTERVAL_S`` while the block it
    guards runs, from a SIGALRM handler in the main thread, and keeps
    the wall and CPU seconds the probes took so they can be taken off
    the block's own time."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.samples.append(probe_s())
        self.wall_s += time.perf_counter() - wall
        self.cpu_s += time.process_time() - cpu

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self.wall_s = self.cpu_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def render_keys() -> List[tuple]:
    return [(scene, technique, "default", "render")
            for scene in RENDER_SCENES for technique in TECHNIQUES]


def query_keys() -> List[tuple]:
    return [(scene, technique, "default", workload)
            for scene, workload in QUERY_SCENES for technique in TECHNIQUES]


def serve_requests() -> List[tuple]:
    """Every request serve-mix sends new in its timed region:
    ``(scene, technique, with_baseline)``."""
    return [(scene, technique, with_baseline)
            for scene in SERVE_SCENES
            for technique, with_baseline in SERVE_KINDS]


def serve_keys() -> List[tuple]:
    keys = set()
    for scene, technique, with_baseline in serve_requests() + [SERVE_PRIMER]:
        keys.add((scene, technique, SERVE_SCALE, "render"))
        if with_baseline:
            keys.add((scene, "baseline", SERVE_SCALE, "render"))
    return sorted(keys)


def all_operation_keys() -> List[tuple]:
    return render_keys() + query_keys() + serve_keys()


def reset_memo() -> None:
    """Empty every in-memory artifact memo, so the next run is cold.

    ``build_scene`` keeps its own memo beside the pipeline's, and
    ``pipeline.clear_caches`` does not drop it.
    """
    from repro.core import pipeline
    from repro.scenes import library

    pipeline.clear_caches()
    library._SCENE_CACHE.clear()


def nearest_rank(values: List[float], q: float) -> float:
    """The ``q`` quantile (0 < q <= 1) by nearest rank; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def gmean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_gmean(cycles: Dict[tuple, int]) -> float:
    """Geometric mean over scenes of baseline / treelet-prefetch cycles,
    from ``{(scene, technique, scale, workload): cycles}``; 0.0 when no
    scene has both."""
    ratios = []
    for (scene, technique, scale, workload), base in cycles.items():
        if technique != "baseline":
            continue
        pref = cycles.get((scene, "treelet-prefetch", scale, workload))
        if pref:
            ratios.append(base / pref)
    return gmean(ratios) if ratios else 0.0


@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: every end-to-end metric except setup_s
    e2e: Dict[str, float] = field(default_factory=dict)
    #: per-layer metrics (traced runs only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: detail for the report file
    report: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


@dataclass
class ColdPass:
    #: host times of each operation, less the probes timed inside it
    latencies: List[float]
    cpus: List[float]
    #: per operation, ``probe_s`` samples taken while it ran
    samples: List[List[float]]
    #: ``BOUNDARY_PROBES`` probes before the first operation and after
    #: each one
    boundaries: List[List[float]]
    cycles: Dict[tuple, int]
    builds: Dict[str, int]
    verify_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def scales(self) -> List[float]:
        """Per operation, the factor that takes its host time to the
        reference host speed: the mean of ``REFERENCE_PROBE_S / probe``
        over the samples taken while it ran and, as one sample at each
        end, the probes timed just before and just after it."""
        ends = [statistics.fmean(REFERENCE_PROBE_S / probe for probe in end)
                for end in self.boundaries]
        return [statistics.fmean(
                    [ends[i], ends[i + 1]]
                    + [REFERENCE_PROBE_S / probe for probe in samples])
                for i, samples in enumerate(self.samples)]

    @property
    def scaled_latencies(self) -> List[float]:
        return [t * k for t, k in zip(self.latencies, self.scales)]

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled_latencies)

    @property
    def scaled_cpu_s(self) -> float:
        return sum(t * k for t, k in zip(self.cpus, self.scales))


def cold_pass(keys: List[tuple], refs, outcome: Outcome,
              tracer: Optional[LayerTracer] = None,
              verify: bool = True) -> ColdPass:
    """Run every key once from an empty memo, then check the outputs.

    Only the ``repro.api.run`` calls are timed, less the probes a
    ``SpeedSampler`` times inside them; the traced pass runs without
    one, so no probe lands in a layer's span.  The reference checks
    and, with ``verify``, the brute-force query verification run after
    the timed region.
    """
    from repro.api import run
    from repro.core.pipeline import build_counts

    reset_memo()
    gc.collect()
    builds_before = build_counts()
    results = []
    latencies = []
    cpus = []
    samples = []
    boundaries = [[probe_s() for _ in range(BOUNDARY_PROBES)]]
    sampler = SpeedSampler() if tracer is None else contextlib.nullcontext()
    if tracer is not None:
        tracer.install()
    try:
        for key in keys:
            scene, technique, scale, workload = key
            cpu_start = time.process_time()
            start = time.perf_counter()
            with sampler:
                try:
                    result = run(scene, technique, scale, workload=workload)
                except Exception as exc:  # noqa: BLE001 — a failed operation
                    result = exc
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            if tracer is None:
                wall -= sampler.wall_s
                cpu -= sampler.cpu_s
                samples.append(sampler.samples)
            else:
                samples.append([])
            latencies.append(wall)
            cpus.append(cpu)
            results.append((key, result))
            boundaries.append([probe_s() for _ in range(BOUNDARY_PROBES)])
    finally:
        if tracer is not None:
            tracer.uninstall()
    builds_after = build_counts()
    cycles = {}
    verify_s = 0.0
    for key, result in results:
        outcome.attempted += 1
        start = time.perf_counter()
        error = _check(key, result, refs, verify)
        if key[3] != "render":
            verify_s += time.perf_counter() - start
        if error:
            outcome.fail(error)
        else:
            cycles[key] = result.cycles
    return ColdPass(
        latencies=latencies,
        cpus=cpus,
        samples=samples,
        boundaries=boundaries,
        cycles=cycles,
        builds={k: builds_after[k] - builds_before.get(k, 0)
                for k in builds_after},
        verify_s=verify_s,
    )


def _check(key: tuple, result, refs, verify: bool) -> Optional[str]:
    """None when one operation's output is right, else why not: its
    simulated results must match the references and, for a query
    workload with ``verify``, its decoded answers must equal brute
    force exactly."""
    from repro.api import parse_technique
    from repro.core.pipeline import DEFAULT
    from repro.queries import verify_workload
    from golden import result_record

    if isinstance(result, Exception):
        return f"{key}: {type(result).__name__}: {result}"
    try:
        mismatch = refs.check(key, result_record(result))
        if mismatch or key[3] == "render" or not verify:
            return mismatch
        check = verify_workload(key[0], DEFAULT, key[3],
                                technique=parse_technique(key[1]))
    except Exception as exc:  # noqa: BLE001 — a check must not crash the run
        return f"{key}: check raised {type(exc).__name__}: {exc}"
    if not check.exact:
        return f"{key}: {check.mismatches} query answers differ from brute force"
    return None


def run_cold(keys: List[tuple], seconds: float, refs,
             trace: bool) -> Outcome:
    """Cold passes until the next one would overrun ``seconds`` (at
    least one), then, when tracing, one more pass with the layers
    wrapped."""
    outcome = Outcome()
    passes: List[ColdPass] = []
    while True:
        # Brute-force verification costs about half a PTSUNI pass, so
        # only the first pass's answers are verified; the golden digests
        # and the cross-pass identity check pin every later pass to it.
        passes.append(cold_pass(keys, refs, outcome, verify=not passes))
        walls = [p.wall_s for p in passes]
        if sum(walls) + statistics.median(walls) > seconds:
            break
    for later in passes[1:]:
        if later.cycles != passes[0].cycles or later.builds != passes[0].builds:
            outcome.errors.append("simulated cycles or build counts differ "
                                  "between passes of one run")
    walls = [p.wall_s for p in passes]
    scaled_walls = [p.scaled_wall_s for p in passes]
    # Each operation's latency is its median over the passes, so the
    # percentiles do not depend on how many passes fit in the run.
    latencies = [statistics.median(op) for op in
                 zip(*(p.scaled_latencies for p in passes))]
    correct_ops = outcome.attempted - outcome.failed
    outcome.e2e = {
        "wall_s": statistics.median(scaled_walls),
        "cpu_s": statistics.median(p.scaled_cpu_s for p in passes),
        "latency_p50_s": statistics.median(latencies),
        "latency_p95_s": nearest_rank(latencies, 0.95),
        "goodput_rps": correct_ops / sum(scaled_walls),
        "sim_speedup_gmean": speedup_gmean(passes[0].cycles),
    }
    outcome.report = {
        "reference_probe_s": REFERENCE_PROBE_S,
        "raw_wall_s": statistics.median(walls),
        "passes": [
            {"wall_s": p.wall_s, "scaled_wall_s": p.scaled_wall_s,
             "cpu_s": sum(p.cpus), "scaled_cpu_s": p.scaled_cpu_s,
             "latencies_s": p.latencies, "scales": p.scales,
             "samples": [len(s) for s in p.samples],
             "verify_s": p.verify_s}
            for p in passes
        ],
        "keys": [list(k) for k in keys],
    }
    if trace:
        tracer = LayerTracer()
        traced = cold_pass(keys, refs, outcome, tracer)
        outcome.layers = layer_metrics(
            tracer, traced.wall_s, statistics.median(walls), traced.builds
        )
        outcome.layers["queries.verify_s"] = traced.verify_s
        if (traced.cycles != passes[0].cycles
                or traced.builds != passes[0].builds):
            outcome.errors.append("simulated cycles or build counts differ "
                                  "between the traced and untraced passes")
        outcome.report["traced_pass"] = {
            "wall_s": traced.wall_s, "spans": tracer.spans,
        }
    return outcome


def layer_metrics(tracer: LayerTracer, traced_wall: float,
                  untraced_wall: float, builds: Dict[str, int]) -> dict:
    """Per-layer metrics from one traced run: self times, counts and
    the accounting checks (every layer name gets a value, 0 when the
    workload never called it)."""
    from layers import layer_names

    layers = {f"{name}_s": tracer.self_s.get(name, 0.0)
              for name in layer_names()}
    counts = tracer.counts
    for name in ("bvh.nodes", "treelet.count", "queries.rays",
                 "traversal.rays", "traversal.node_visits", "gpusim.visits",
                 "gpusim.sim_cycles", "gpusim.l1_demand_accesses",
                 "gpusim.dram_accesses", "prefetch.issued",
                 "exec.cache_stores", "exec.cache_hits"):
        layers[name] = counts.get(name, 0)

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    layers["gpusim.l1_hit_frac"] = ratio(
        "gpusim.l1_demand_hits", "gpusim.l1_demand_accesses")
    layers["gpusim.stall_frac"] = ratio(
        "gpusim.stall_cycles", "gpusim.unit_cycles")
    layers["prefetch.useful_frac"] = ratio(
        "prefetch.useful", "prefetch.issued")
    visits = counts.get("gpusim.visits", 0)
    layers["gpusim.us_per_visit"] = (
        layers["gpusim.replay_s"] / visits * 1e6 if visits else 0.0
    )
    for kind, value in builds.items():
        layers[f"pipeline.builds.{kind}"] = value
    for name in ("serve.queue_wait_p50_s", "serve.run_p50_s",
                 "serve.run_p95_s", "serve.http_p50_s",
                 "serve.result_hit_frac", "serve.batch_mean", "serve.shed",
                 "loadgen.lag_p95_s", "queries.verify_s"):
        layers[name] = 0.0
    layers["run.residual_s"] = traced_wall - sum(tracer.self_s.values())
    layers["run.trace_overhead_s"] = traced_wall - untraced_wall
    return layers
