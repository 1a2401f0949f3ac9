"""Micro-batching scheduler: coalesce queued jobs, execute off-loop.

The throughput lever here is the same one the vectorized traversal
backend pulls: many independent jobs ride one engine pass.  The
scheduler takes whatever is queued (up to ``batch_max``, waiting at
most ``batch_window_s`` for stragglers after the first arrival) and
executes it as one batch:

1. every trace set the batch will need is generated in one
   :func:`repro.core.pipeline.prewarm_traces` call, which merges all
   missing (scene, technique) pairs into a single
   ``traverse_forest_jobs`` packet stream;
2. with ``workers > 1`` the simulation replays fan across the
   :mod:`repro.exec` process pool (one :func:`execute_jobs` call for
   the whole batch, deduplicated), seeding the in-process artifact
   store;
3. each job's result document is then assembled from warm results.

Threading model: the scheduler loop and all job state transitions run
on the service's asyncio event loop; the batch body runs in a single
dedicated worker thread (so the HTTP handlers stay responsive), and
hands each finished outcome back to the loop with
``call_soon_threadsafe``.  One batch executes at a time, so the
pipeline's artifact store is never touched concurrently.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

from ..obs import spans as _sp
from . import protocol
from .protocol import JobRecord


class MicroBatchScheduler:
    """Pulls admitted jobs off the queue and executes them in batches."""

    def __init__(
        self,
        queue: "asyncio.Queue[JobRecord]",
        *,
        workers: int = 1,
        batch_max: int = 8,
        batch_window_s: float = 0.005,
        metrics=None,
        result_cache=None,
        job_timeout: Optional[float] = None,
        start_paused: bool = False,
        spans: Optional[_sp.SpanCollector] = None,
    ) -> None:
        self.queue = queue
        self.workers = max(1, int(workers))
        self.batch_max = max(1, int(batch_max))
        self.batch_window_s = max(0.0, float(batch_window_s))
        self.metrics = metrics
        self.result_cache = result_cache
        self.job_timeout = job_timeout
        self.spans = spans
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._task: Optional[asyncio.Task] = None
        self._busy = False
        # Loop-bound primitives are created in start() (Python 3.9
        # binds them to the *current* loop at construction time).
        self._pause_flag = bool(start_paused)
        self._resume_event: Optional[asyncio.Event] = None
        self.batches_dispatched = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._resume_event = asyncio.Event()
            if not self._pause_flag:
                self._resume_event.set()
            self._task = asyncio.get_running_loop().create_task(self._loop())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._executor.shutdown(wait=True)

    def pause(self) -> None:
        """Hold dispatch (jobs keep queueing; tests use this to fill the
        admission queue deterministically)."""
        self._pause_flag = True
        if self._resume_event is not None:
            self._resume_event.clear()

    def resume(self) -> None:
        self._pause_flag = False
        if self._resume_event is not None:
            self._resume_event.set()

    @property
    def busy(self) -> bool:
        """True while a batch is executing."""
        return self._busy

    def idle(self) -> bool:
        return self.queue.empty() and not self._busy

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is empty and no batch is in flight.
        Returns False if ``timeout`` elapsed first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.idle():
            if deadline is not None and time.monotonic() > deadline:
                return False
            await asyncio.sleep(0.01)
        return True

    # ------------------------------------------------------------------
    # Batch formation (event-loop thread).
    # ------------------------------------------------------------------

    async def _loop(self) -> None:
        while True:
            await self._resume_event.wait()
            job = await self.queue.get()
            batch = [job]
            if self.batch_window_s > 0:
                window_end = time.monotonic() + self.batch_window_s
                while len(batch) < self.batch_max:
                    remaining = window_end - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        batch.append(
                            await asyncio.wait_for(self.queue.get(), remaining)
                        )
                    except asyncio.TimeoutError:
                        break
            else:
                while len(batch) < self.batch_max and not self.queue.empty():
                    batch.append(self.queue.get_nowait())
            self._busy = True
            try:
                await self._dispatch(batch)
            finally:
                self._busy = False

    async def dispatch_once(self) -> int:
        """Drain whatever is queued right now as one batch (test/manual
        hook; the paused loop is left untouched).  Returns the number of
        jobs taken."""
        batch: List[JobRecord] = []
        while len(batch) < self.batch_max and not self.queue.empty():
            batch.append(self.queue.get_nowait())
        if batch:
            self._busy = True
            try:
                await self._dispatch(batch)
            finally:
                self._busy = False
        return len(batch)

    async def _dispatch(self, batch: List[JobRecord]) -> None:
        now = time.monotonic()
        runnable: List[JobRecord] = []
        for job in batch:
            if job.state != protocol.QUEUED:
                continue  # cancelled/expired lazily while queued
            if job.cancel_requested:
                job.finalize(protocol.CANCELLED, error="cancelled by client")
                self._count("serve.jobs_cancelled")
                continue
            if job.expired(now):
                job.finalize(protocol.TIMEOUT, error="deadline exceeded")
                self._count("serve.jobs_timeout")
                continue
            job.state = protocol.RUNNING
            job.started = now
            runnable.append(job)
        if not runnable:
            return
        self.batches_dispatched += 1
        if self.metrics is not None:
            self.metrics.counter("serve.batches").inc()
            self.metrics.histogram(
                "serve.batch_size", bounds=(1, 2, 4, 8, 16, 32, 64)
            ).record(len(runnable))
        batch_span, batch_ctx = self._open_batch_span(runnable)
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                self._executor, self._execute_batch, runnable, loop,
                batch_ctx,
            )
        finally:
            if batch_span is not None:
                self.spans.end(batch_span)

    def _open_batch_span(self, runnable: List[JobRecord]):
        """One ``serve.batch`` span per dispatched batch.

        A single-request batch joins that request's trace directly
        (its span parents the batch).  A mixed batch gets its own
        trace_id with the member requests linked through ``args`` —
        one batch cannot belong to several trace trees at once.
        """
        if self.spans is None:
            return None, None
        trace_ids = {job.trace_id for job in runnable if job.trace_id}
        parent = None
        if len(trace_ids) == 1:
            trace_id = next(iter(trace_ids))
            roots = {job.span_id for job in runnable if job.span_id}
            if len(roots) == 1:
                parent = _sp.SpanContext(trace_id, next(iter(roots)))
        else:
            trace_id = _sp.new_id()
        batch_span = self.spans.begin(
            "serve.batch",
            parent=parent,
            trace_id=trace_id,
            args={
                "jobs": len(runnable),
                "links": [
                    {
                        "job": job.id,
                        "trace_id": job.trace_id,
                        "span_id": job.span_id,
                    }
                    for job in runnable
                ],
            },
        )
        # Synthesize each member's queue wait (monotonic -> unix).
        offset = time.time() - time.monotonic()
        for job in runnable:
            if job.trace_id and job.started is not None:
                self.spans.record(
                    "queue.wait",
                    job.submitted + offset,
                    job.started + offset,
                    parent=_sp.SpanContext(job.trace_id, job.span_id),
                    args={"job": job.id},
                )
        return batch_span, batch_span.context

    # ------------------------------------------------------------------
    # Batch execution (worker thread — computes only, never mutates
    # job records directly).
    # ------------------------------------------------------------------

    def _execute_batch(
        self, batch: List[JobRecord], loop, batch_ctx=None
    ) -> None:
        token = None
        if self.spans is not None and batch_ctx is not None:
            # Prewarm work belongs to the batch; per-job work re-parents
            # onto each request's root span below.
            token = _sp.activate(self.spans, batch_ctx)
        try:
            with _sp.span("batch.prewarm"):
                self._prewarm(batch)
            if self.workers > 1:
                with _sp.span("batch.prewarm_pool", workers=self.workers):
                    self._prewarm_pool(batch)
            for job in batch:
                if job.cancel_requested:
                    loop.call_soon_threadsafe(
                        self._finalize, job, protocol.CANCELLED, None,
                        "cancelled by client",
                    )
                    continue
                if job.expired():
                    loop.call_soon_threadsafe(
                        self._finalize, job, protocol.TIMEOUT, None,
                        "deadline exceeded",
                    )
                    continue
                job_token = None
                if (
                    self.spans is not None
                    and job.trace_id
                    and job.span_id
                ):
                    job_token = _sp.activate(
                        self.spans,
                        _sp.SpanContext(job.trace_id, job.span_id),
                    )
                try:
                    with _sp.span("serve.execute", job=job.id):
                        result = job.spec.evaluate()
                    state, error = protocol.DONE, None
                    if job.expired():
                        # Finished, but past its deadline: report
                        # timeout — the caller stopped waiting — while
                        # the warm result still seeds the caches for
                        # the next request.
                        state, error = protocol.TIMEOUT, "deadline exceeded"
                        result = None
                except Exception as exc:  # noqa: BLE001 — job isolation
                    result = None
                    state = protocol.FAILED
                    error = f"{type(exc).__name__}: {exc}"
                finally:
                    if job_token is not None:
                        _sp.deactivate(job_token)
                loop.call_soon_threadsafe(
                    self._finalize, job, state, result, error
                )
        finally:
            if token is not None:
                _sp.deactivate(token)

    def _prewarm(self, batch: List[JobRecord]) -> None:
        """One ``prewarm_traces`` call per scale: the whole batch's
        missing trace sets ride a single vectorized forest pass."""
        from ..core.pipeline import prewarm_traces

        pairs_by_scale = {}
        for job in batch:
            if job.cancel_requested or job.expired():
                continue
            scale = job.spec.scale
            pairs_by_scale.setdefault(scale.name, (scale, []))[1].extend(
                job.spec.trace_pairs()
            )
        for scale, pairs in pairs_by_scale.values():
            try:
                prewarm_traces(pairs, scale)
            except Exception:  # noqa: BLE001
                pass  # per-job evaluation will surface the real error

    def _prewarm_pool(self, batch: List[JobRecord]) -> None:
        """Fan the batch's simulation replays across the repro.exec
        process pool and seed the in-process result memo.

        :func:`~repro.exec.executor.prewarm_replay_jobs` re-checks the
        artifact store (a no-op after :meth:`_prewarm`) and does the
        pool fan-out plus result seeding in one call."""
        from ..exec.executor import prewarm_replay_jobs

        exec_jobs = []
        for job in batch:
            if job.cancel_requested or job.expired():
                continue
            exec_jobs.extend(job.spec.exec_jobs())
        if len(exec_jobs) < 2:
            return
        try:
            prewarm_replay_jobs(
                exec_jobs,
                workers=self.workers,
                job_timeout=self.job_timeout,
                metrics=self.metrics,
            )
        except Exception:  # noqa: BLE001
            return  # fall back to in-process evaluation per job

    # ------------------------------------------------------------------
    # Finalization (event-loop thread).
    # ------------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _finalize(self, job: JobRecord, state: str,
                  result: Optional[dict], error: Optional[str]) -> None:
        if job.terminal:
            return
        job.finalize(state, result=result, error=error)
        self._count(f"serve.jobs_{state}")
        if self.metrics is not None and job.latency_s is not None:
            self.metrics.histogram(
                "serve.latency_ms",
                bounds=(1, 2, 5, 10, 20, 50, 100, 200, 500,
                        1000, 2000, 5000, 10000),
            ).record(job.latency_s * 1000.0)
        if (
            state == protocol.DONE
            and result is not None
            and self.result_cache is not None
        ):
            self.result_cache.put(job.spec.cache_key, result)
