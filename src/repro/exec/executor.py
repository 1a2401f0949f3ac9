"""Parallel sweep executor: fan (scene, technique, scale) jobs across
worker processes with deterministic merging.

Every job is one :func:`repro.core.pipeline.run_experiment` call.  The
simulation is deterministic, so a worker produces :class:`SimStats`
bit-for-bit identical to the serial path; the executor only changes
*where* jobs run, never *what* they compute.  Results are merged in
submission order, so sweeps assemble identically regardless of which
worker finished first.

Robustness: a job that raises in a worker is retried (bounded) in the
pool; on exhaustion, a timeout, or a broken pool (hard worker crash)
the job falls back to in-process execution, so a sweep always
completes with correct results.  Workers share the on-disk artifact
cache (:mod:`repro.exec.cache`), so each scene's BVH/rays/traces are
built once across the whole fleet.

Progress is reported through an optional callback and, when a
:class:`repro.obs.MetricRegistry` is supplied, through ``exec.*``
counters (jobs done, per-source breakdown, retries) — the same metric
surface every other subsystem uses.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..core.pipeline import (
    BASELINE,
    DEFAULT,
    STORE,
    ExperimentResult,
    Scale,
    Technique,
    _run_experiment,
    result_inputs,
)
from ..obs import spans as _spans
from .cache import get_artifact_cache, set_artifact_cache


@dataclass(frozen=True)
class Job:
    """One (scene, technique, scale, workload) evaluation."""

    scene: str
    technique: Technique
    scale: Scale
    workload: str = "render"

    def inputs(self) -> dict:
        """The result memo's inputs for this job (as _run_experiment's)."""
        return result_inputs(
            self.scene, self.technique, self.scale, self.workload
        )

    def key(self) -> str:
        return STORE.key("result", self.inputs())


#: progress callback signature: (done, total, job, source) where source
#: is "pool", "pool-retry", or "inprocess".
ProgressFn = Callable[[int, int, Job, str], None]


@dataclass
class ExecutionReport:
    """What happened while executing a batch of jobs."""

    submitted: int = 0
    completed: int = 0
    from_pool: int = 0
    retried: int = 0
    timeouts: int = 0
    worker_failures: int = 0
    inprocess_fallbacks: int = 0
    progress_errors: int = 0
    pool_broken: bool = False
    sources: Dict[str, int] = field(default_factory=dict)
    #: Serialized spans shipped back from pool workers (repro.obs.spans
    #: dicts); populated only when a span context was active at submit.
    spans: List[dict] = field(default_factory=list)

    def note(self, source: str) -> None:
        self.completed += 1
        self.sources[source] = self.sources.get(source, 0) + 1
        if source.startswith("pool"):
            self.from_pool += 1
        else:
            self.inprocess_fallbacks += 1


def _init_worker(cache_dir: Optional[str]) -> None:
    """Pool initializer: point the worker at the shared artifact cache."""
    if cache_dir:
        set_artifact_cache(cache_dir)


def _run_job(job: Job) -> ExperimentResult:
    """Evaluate one job (top-level so it pickles into workers)."""
    return _run_experiment(
        job.scene, job.technique, job.scale, workload=job.workload
    )


def _job_span_args(job: Job, worker: str) -> dict:
    return {
        "scene": job.scene,
        "technique": job.technique.label(),
        "scale": job.scale.name,
        "worker": worker,
    }


def _run_job_traced(job: Job, ctx_dict: dict):
    """Evaluate one job in a worker *with span collection*.

    A fresh collector is activated (shadowing any span state inherited
    across ``fork``), the caller's :class:`~repro.obs.SpanContext`
    parents the worker's ``exec.job`` span so its trace_id threads
    through, and the finished spans ship back serialized alongside the
    result — the caller folds them into :attr:`ExecutionReport.spans`.
    """
    collector = _spans.SpanCollector(process="worker")
    token = _spans.activate(
        collector, _spans.SpanContext.from_dict(ctx_dict)
    )
    try:
        with _spans.span("exec.job", **_job_span_args(job, "pool")):
            result = _run_job(job)
    finally:
        _spans.deactivate(token)
    return result, collector.to_dicts()


def _mp_context():
    """Fork when the platform has it (fast, inherits the warm store);
    spawn otherwise.  ``REPRO_MP_START`` overrides."""
    import multiprocessing

    name = os.environ.get("REPRO_MP_START", "").strip()
    if name:
        return multiprocessing.get_context(name)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


def metrics_progress(registry) -> ProgressFn:
    """A progress callback that folds into a repro.obs MetricRegistry."""

    def progress(done: int, total: int, job: Job, source: str) -> None:
        registry.counter("exec.jobs_done").inc()
        registry.counter(f"exec.jobs_{source.replace('-', '_')}").inc()

    return progress


def execute_jobs(
    jobs: Sequence[Job],
    workers: int,
    *,
    cache_dir: Optional[str] = None,
    job_timeout: Optional[float] = None,
    retries: int = 1,
    progress: Optional[ProgressFn] = None,
    metrics=None,
    job_fn: Callable[[Job], ExperimentResult] = _run_job,
    report: Optional[ExecutionReport] = None,
) -> List[ExperimentResult]:
    """Run every job and return results in input order.

    Duplicate jobs (same scene/technique/scale) are evaluated once.
    ``workers <= 1`` runs everything in-process (no pool).  ``job_fn``
    is injectable for fault-injection tests.  ``metrics`` (a
    :class:`repro.obs.MetricRegistry`) adds ``exec.*`` counters on top
    of any explicit ``progress`` callback.
    """
    report = report if report is not None else ExecutionReport()
    jobs = list(jobs)
    if cache_dir is None and get_artifact_cache() is not None:
        cache_dir = str(get_artifact_cache().root)

    callbacks: List[ProgressFn] = []
    if progress is not None:
        callbacks.append(progress)
    if metrics is not None:
        callbacks.append(metrics_progress(metrics))

    unique: List[Job] = []
    seen = {}
    for job in jobs:
        if job.key() not in seen:
            seen[job.key()] = len(unique)
            unique.append(job)
    report.submitted = len(unique)

    # Span plumbing: with an ambient span context and the stock job
    # function, pool jobs run the traced wrapper (worker spans ship
    # back inside the result tuple) and in-process jobs record straight
    # into the ambient collector.
    collector = _spans.active_collector()
    context = _spans.current_context()
    traced = (
        job_fn is _run_job and collector is not None and context is not None
    )

    def local_run(job: Job) -> ExperimentResult:
        if not traced:
            return job_fn(job)
        with _spans.span("exec.job", **_job_span_args(job, "inprocess")):
            return _run_job(job)

    def announce(done: int, job: Job, source: str) -> None:
        report.note(source)
        for callback in callbacks:
            # A progress callback is user code observing the sweep; an
            # exception inside it must never abort jobs mid-flight.
            try:
                callback(done, len(unique), job, source)
            except Exception:  # noqa: BLE001 — observer isolation
                report.progress_errors += 1
                if metrics is not None:
                    metrics.counter("exec.progress_errors").inc()

    results: Dict[tuple, ExperimentResult] = {}
    if workers <= 1 or len(unique) <= 1:
        for index, job in enumerate(unique):
            results[job.key()] = local_run(job)
            announce(index + 1, job, "inprocess")
        return [results[job.key()] for job in jobs]

    def pool_submit(job: Job):
        if traced:
            return pool.submit(_run_job_traced, job, context.to_dict())
        return pool.submit(job_fn, job)

    ctx = _mp_context()
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(unique)),
        mp_context=ctx,
        initializer=_init_worker,
        initargs=(cache_dir,),
    )
    pool_healthy = True
    try:
        futures = {job.key(): pool_submit(job) for job in unique}
        done = 0
        for job in unique:
            result = None
            source = "pool"
            attempts = 0
            future = futures[job.key()]
            while pool_healthy:
                try:
                    result = future.result(timeout=job_timeout)
                    break
                except FutureTimeoutError:
                    report.timeouts += 1
                    # The worker is wedged on this job; don't trust the
                    # pool slot again for it.
                    break
                except BrokenProcessPool:
                    report.pool_broken = True
                    pool_healthy = False
                    break
                except Exception:
                    report.worker_failures += 1
                    if attempts < retries:
                        attempts += 1
                        report.retried += 1
                        source = "pool-retry"
                        try:
                            future = pool_submit(job)
                        except Exception:
                            pool_healthy = False
                            break
                        continue
                    break
            if result is None:
                # Graceful fallback: evaluate here, in this process.
                result = local_run(job)
                source = "inprocess"
            elif traced:
                result, shipped = result
                report.spans.extend(shipped)
                collector.add_dicts(shipped)
            results[job.key()] = result
            done += 1
            announce(done, job, source)
    finally:
        # Don't block on wedged workers; drop anything still queued.
        wait = pool_healthy and report.timeouts == 0
        pool.shutdown(wait=wait, cancel_futures=True)
    return [results[job.key()] for job in jobs]


def prewarm_replay_jobs(
    jobs: Sequence[Job],
    workers: int,
    **options,
) -> List[ExperimentResult]:
    """Fan the *replay* phase of ``jobs`` across the worker pool.

    Trace generation is hoisted into the parent first — one
    :func:`repro.core.pipeline.prewarm_traces` call per distinct scale,
    so every missing trace set rides the vectorized forest driver once.
    Fork-started workers then inherit the warm artifact store and spend
    their time purely on simulation replay (spawn-started workers reload
    the traces from the shared artifact cache when one is active).
    Results seed the in-process result memo, and ``options`` passes
    through to :func:`execute_jobs` (progress/metrics/timeouts/span
    shipping — the deterministic merge and fallback semantics are
    unchanged).
    """
    from ..core import pipeline

    jobs = list(jobs)
    by_scale: Dict[str, tuple] = {}
    for job in jobs:
        by_scale.setdefault(job.scale.name, (job.scale, []))[1].append(
            (job.scene, job.technique, job.workload)
        )
    for scale, pairs in by_scale.values():
        pipeline.prewarm_traces(pairs, scale)
    results = execute_jobs(jobs, workers=workers, **options)
    for job, result in zip(jobs, results):
        STORE.put("result", job.inputs(), result)
    return results


def prewarm_replays(
    techniques: Iterable[Technique],
    scenes: Iterable[str],
    scale: Scale = DEFAULT,
    jobs: int = 1,
    workload: str = "render",
    **options,
) -> List[ExperimentResult]:
    """Evaluate every (scene, technique) pair and seed the in-process
    result memo, so subsequent serial code (sweep assembly, report
    loops, benchmarks) hits memory instead of re-simulating.  Traces
    for every pair are batch-generated in the parent (one vectorized
    forest pass), then the replays fan across ``jobs`` worker
    processes."""
    batch = [
        Job(scene=scene, technique=technique, scale=scale, workload=workload)
        for technique in techniques
        for scene in scenes
    ]
    return prewarm_replay_jobs(batch, workers=jobs, **options)


def run_sweep_parallel(
    technique: Technique,
    scenes: Iterable[str],
    scale: Scale = DEFAULT,
    baseline: Technique = BASELINE,
    jobs: int = 2,
    **options,
):
    """Deprecated alias for ``repro.api.sweep(..., jobs=N)`` (same
    results)."""
    from ..core.deprecation import warn_once

    warn_once(
        "repro.exec.run_sweep_parallel",
        "repro.exec.run_sweep_parallel is deprecated; "
        "use repro.api.sweep(..., jobs=N)",
    )
    from ..api import sweep

    return sweep(
        technique,
        list(scenes),
        scale,
        baseline=baseline,
        jobs=max(jobs, 2),
        **options,
    )


def compare_techniques_parallel(
    techniques: Dict[str, Technique],
    scenes: Iterable[str],
    scale: Scale = DEFAULT,
    baseline: Technique = BASELINE,
    jobs: int = 2,
    **options,
):
    """Deprecated alias for ``repro.api.compare(..., jobs=N)`` (same
    results)."""
    from ..core.deprecation import warn_once

    warn_once(
        "repro.exec.compare_techniques_parallel",
        "repro.exec.compare_techniques_parallel is deprecated; "
        "use repro.api.compare(..., jobs=N)",
    )
    from ..api import compare

    return compare(
        techniques,
        list(scenes),
        scale,
        baseline=baseline,
        jobs=max(jobs, 2),
        **options,
    )
