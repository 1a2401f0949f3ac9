"""The ``serve-mix`` workload: open-loop requests into an in-process
``SimulationService``.

Arrivals are open loop: request ``i`` is due at ``(i + u) / RATE_RPS``
with ``u`` drawn from the seed, whatever the service is doing, and its
latency runs from that due time, so a stall also charges the requests
queued behind it.  The client holds at most ``nproc`` connections; a
request that finds them busy waits, and that wait shows as
``loadgen.lag_p95_s``.

Most requests repeat one sent at least ``LATENCY_LIMIT_S`` earlier and
are answered from the result LRU.  32 are new, evenly spaced through
the run, over small render scenes at smoke scale (``SERVE_SCENES`` ×
``SERVE_KINDS``), kind by kind.  The first kind asks for treelet
prefetch with its baseline: it builds the scene and fans the two
replays across the ``min(2, nproc)`` pool workers.  The later kinds
reuse the build; one forms new treelets and the others replay once.
Every new request writes the memo and the disk artifact cache.  The new
requests and their order are the same on every seed, so seeds differ in
timing, not in work: the seed decides the arrival jitter and which
earlier request each repeat names.  Hits and misses run side by side,
so speeding one path at the other's cost shows in the latency
percentiles.

The client times ``workloads.probe_s`` four times a second whenever no
request is in flight and none is due within 20 ms, so the probe delays
no request.  The CPU time, and each request's latency less the time its
job sat in the queue, are scaled by the mean of
``REFERENCE_PROBE_S / probe`` over those samples, as the cold
workloads' times are.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import random
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from layers import LayerTracer
from workloads import (
    REFERENCE_PROBE_S,
    SERVE_KINDS,
    SERVE_PRIMER,
    SERVE_SCALE,
    Outcome,
    layer_metrics,
    nearest_rank,
    probe_s,
    reset_memo,
    serve_requests,
    speedup_gmean,
)

#: Offered rate; the service keeps up with it on a 2-core host.  A 30 s
#: run sends 480 requests, so 24 lie beyond the p95: the 8 scene builds
#: and 8 treelet re-formations among the 32 new requests sit above it,
#: and it falls inside the cluster of 16 new requests that replay once.
RATE_RPS = 16.0
#: A response later than this after its due time misses the limit.
LATENCY_LIMIT_S = 1.0
#: The service's micro-batch window: a miss waits this long for
#: stragglers before its batch runs.  It gives every miss the same
#: floor, well above a hit's latency, so the p95 (which lands among the
#: misses) is set by the window plus the miss's own work rather than by
#: how often hits stall behind the batch thread on a given host.
BATCH_WINDOW_S = 0.05
#: How often the client tries to time ``probe_s`` while the run is idle.
PROBE_INTERVAL_S = 0.25
#: A probe runs only when no request is in flight and none is due
#: within this long, so it delays no request.
PROBE_CLEARANCE_S = 0.02


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers() -> int:
    return min(2, nproc())


def schedule(seed: int, seconds: float) -> List[tuple]:
    """``[(due_s, request), ...]`` for one run, from the seed alone."""
    rng = random.Random(seed)
    count = max(1, int(RATE_RPS * seconds))
    # New requests go in one fixed order, every scene's build first, so
    # the order in which work arrives does not vary by seed.
    fresh = sorted(serve_requests(),
                   key=lambda r: SERVE_KINDS.index(r[1:]))
    new_count = min(len(fresh), count)
    # Evenly spaced, so how often misses overlap does not vary by seed.
    new_at = {int(i * count / new_count) for i in range(new_count)}
    sent: List[tuple] = []  # (due, request) of the new requests
    arrivals = []
    for i in range(count):
        due = (i + rng.random()) / RATE_RPS
        if i in new_at:
            request = fresh.pop(0)
            sent.append((due, request))
        else:
            # Repeat a request whose first copy is past the latency
            # limit, so repeats exercise the result LRU rather than
            # doubling a miss still in flight.
            settled = [r for d, r in sent if d <= due - LATENCY_LIMIT_S]
            request = rng.choice(settled or [SERVE_PRIMER])
        arrivals.append((due, request))
    return arrivals


class ServiceThread:
    """A ``SimulationService`` on its own event loop and thread."""

    def __init__(self, cache_dir: str) -> None:
        from repro.serve import ServeConfig, SimulationService

        self.service = SimulationService(ServeConfig(
            port=0, workers=workers(), cache_dir=cache_dir,
            batch_window_s=BATCH_WINDOW_S,
        ))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="serve-loop", daemon=True
        )

    def _call(self, coroutine, timeout: float):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self.loop
        ).result(timeout)

    def __enter__(self) -> "ServiceThread":
        self.thread.start()
        self._call(self.service.start(), 60)
        return self

    def __exit__(self, *exc) -> None:
        from repro.exec import set_artifact_cache

        try:
            self._call(self.service.begin_drain(), 120)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(60)
            self.loop.close()
            set_artifact_cache(None)


def setup_probe(scratch: Path) -> None:
    """What a serve-mix run does before its first request: imports and
    service start.  The service spawns no process at start; the
    ``repro.exec`` pool is created per micro-batch."""
    cache_dir = tempfile.mkdtemp(prefix="probe-", dir=scratch)
    try:
        with ServiceThread(cache_dir):
            pass
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


@dataclass
class Request:
    key: tuple
    due: float
    sent: float
    done: float
    status: int
    document: Optional[dict]
    error: Optional[str]


async def _drive(port: int, arrivals: List[tuple], sample: bool):
    from repro.serve.client import AsyncServeClient
    from repro.serve.protocol import SubmitRequest

    loop = asyncio.get_running_loop()
    client = AsyncServeClient("127.0.0.1", port, timeout=120.0)
    slots = asyncio.Semaphore(nproc())

    def submit(key: tuple):
        return client.submit(SubmitRequest(
            kind="run", scene=key[0], technique=key[1], scale=SERVE_SCALE,
            baseline=key[2], wait=True,
        ))

    primer = await submit(SERVE_PRIMER)
    if primer.status != 200:
        raise RuntimeError(f"primer request failed: {primer.document}")
    origin = loop.time() + 0.05
    cpu_marks = (time.process_time(),
                 resource.getrusage(resource.RUSAGE_CHILDREN))
    requests: List[Optional[Request]] = [None] * len(arrivals)
    dues = sorted(origin + due for due, _key in arrivals)
    in_flight = 0
    probes: List[float] = []

    async def one(index: int, due: float, key: tuple) -> None:
        nonlocal in_flight
        await asyncio.sleep(max(0.0, origin + due - loop.time()))
        in_flight += 1
        async with slots:
            sent = loop.time()
            try:
                response = await submit(key)
                status, document, error = (
                    response.status, response.document, None)
            except Exception as exc:  # noqa: BLE001 — a failed request
                status, document, error = (
                    0, None, f"{type(exc).__name__}: {exc}")
            done = loop.time()
        in_flight -= 1
        requests[index] = Request(key, origin + due, sent, done, status,
                                  document, error)

    async def sample_speed() -> None:
        # Blocks the client's loop for one probe, so only while nothing
        # is in flight and the next request is not due for a while.  The
        # traced run takes no samples, so no probe delays a span.
        while sample:
            await asyncio.sleep(PROBE_INTERVAL_S)
            now = loop.time()
            upcoming = bisect.bisect_left(dues, now)
            if in_flight == 0 and (upcoming == len(dues) or
                                   dues[upcoming] - now > PROBE_CLEARANCE_S):
                probes.append(probe_s())

    sampler = asyncio.ensure_future(sample_speed())
    try:
        await asyncio.gather(*(one(i, due, key)
                               for i, (due, key) in enumerate(arrivals)))
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)
    metrics = (await client.metrics()).document
    return origin, cpu_marks, requests, metrics, probes


def _one_run(seed: int, seconds: float, refs, scratch: Path,
             tracer: Optional[LayerTracer]) -> dict:
    from repro.core.pipeline import build_counts
    from repro.exec import get_artifact_cache

    arrivals = schedule(seed, seconds)
    reset_memo()
    cache_dir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
    try:
        with ServiceThread(cache_dir) as running:
            builds_before = build_counts()
            if tracer is not None:
                tracer.install()
            try:
                (origin, (cpu_start, child_start), requests, metrics,
                 probes) = asyncio.run(_drive(running.service.port,
                                              arrivals, tracer is None))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            builds = {k: v - builds_before.get(k, 0)
                      for k, v in build_counts().items()}
            cache_stats = get_artifact_cache().stats
        # After the drain every pool worker has been reaped, so its CPU
        # time and peak RSS are in RUSAGE_CHILDREN.
        child_end = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (time.process_time() - cpu_start
               + child_end.ru_utime - child_start.ru_utime
               + child_end.ru_stime - child_start.ru_stime)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    wall = max(r.done for r in requests) - origin
    checked = []
    for request in requests:
        job = request.document if isinstance(request.document, dict) else {}
        error = request.error
        if error is None and (request.status != 200
                              or job.get("state") != "done"):
            error = f"HTTP {request.status}, state {job.get('state')!r}"
        if error is None:
            try:
                error = _check_result(request.key, job["result"], refs)
            except Exception as exc:  # noqa: BLE001 — a check must not crash
                error = f"check raised {type(exc).__name__}: {exc}"
        checked.append((request, job, error))
    return {
        "origin": origin, "wall": wall, "cpu": cpu, "checked": checked,
        "probes": probes,
        "metrics": metrics,
        "builds": builds, "cache_stats": cache_stats,
        "worker_peak_kb": child_end.ru_maxrss,
    }


def _result_cycles(request: tuple, result: dict) -> dict:
    """``{op key: (cycles, stats)}`` for every run a served result
    carries."""
    scene, technique, with_baseline = request
    found = {(scene, technique, SERVE_SCALE, "render"):
             (result["cycles"], result["stats"])}
    if with_baseline:
        found[(scene, "baseline", SERVE_SCALE, "render")] = (
            result["baseline_cycles"], result["baseline_stats"])
    return found


def _check_result(request: tuple, result: dict, refs) -> Optional[str]:
    from golden import stats_digest

    for key, (cycles, stats) in _result_cycles(request, result).items():
        error = refs.check(key, {"cycles": cycles,
                                 "stats_sha256": stats_digest(stats)})
        if error:
            return error
    return None


def run_serve_mix(seed: int, seconds: float, refs, scratch: Path,
                  trace: bool) -> Outcome:
    outcome = Outcome()
    run = _one_run(seed, seconds, refs, scratch, None)
    within = 0
    cycles = {}
    latencies = []
    scaled = []
    if not run["probes"]:
        outcome.errors.append("the run was never idle long enough to time "
                              "the host's speed")
    speed = statistics.fmean(
        REFERENCE_PROBE_S / probe for probe in run["probes"]
    ) if run["probes"] else 1.0
    for request, job, error in run["checked"]:
        outcome.attempted += 1
        latency = request.done - request.due
        latencies.append(latency)
        # Latencies are scaled to the reference host speed like a cold
        # operation's time, except for the time the job sat in the queue
        # (a miss's batch window), which is a fixed wait.
        wait = job.get("queue_wait_s") or 0.0
        scaled.append(wait + (latency - wait) * speed)
        if error:
            outcome.fail(f"{request.key}: {error}")
            continue
        for key, (value, _stats) in _result_cycles(
                request.key, job["result"]).items():
            cycles[key] = value
        within += latency <= LATENCY_LIMIT_S
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Own peak plus the largest worker's peak, both kernel high-water
    # marks; a forked worker's RSS counts pages it shares with the parent.
    outcome.e2e = {
        "wall_s": run["wall"],
        "cpu_s": run["cpu"] * speed,
        "latency_p50_s": statistics.median(scaled),
        "latency_p95_s": nearest_rank(scaled, 0.95),
        "goodput_rps": within / run["wall"],
        "sim_speedup_gmean": speedup_gmean(cycles),
        "peak_rss_mb": (own_peak_kb + run["worker_peak_kb"]) / 1024.0,
    }
    outcome.report = {
        "requests": len(latencies),
        "new_requests": len(serve_requests()),
        "rate_rps": RATE_RPS,
        "latency_limit_s": LATENCY_LIMIT_S,
        "connections": nproc(),
        "workers": workers(),
        "probes_s": run["probes"],
        "speed_scale": speed,
        "raw_cpu_s": run["cpu"],
        "raw_latency_p50_s": statistics.median(latencies),
        "raw_latency_p95_s": nearest_rank(latencies, 0.95),
        "requests_detail": [
            {"due_s": request.due - run["origin"],
             "latency_s": request.done - request.due,
             "queue_wait_s": job.get("queue_wait_s"),
             "lag_s": request.sent - request.due,
             "cached": bool(job.get("cached")), "request": list(request.key),
             "error": error}
            for request, job, error in run["checked"]
        ],
    }
    if trace:
        tracer = LayerTracer()
        traced = _one_run(seed, seconds, refs, scratch, tracer)
        for request, _job, error in traced["checked"]:
            outcome.attempted += 1
            if error:
                outcome.fail(f"traced {request.key}: {error}")
        outcome.layers = layer_metrics(
            tracer, traced["wall"], run["wall"], traced["builds"])
        outcome.layers.update(_serve_layers(traced))
        outcome.report["traced_run"] = {
            "wall_s": traced["wall"], "spans": tracer.spans,
            "self_s_by_thread": tracer.self_by_thread,
        }
    return outcome


def _serve_layers(run: dict) -> dict:
    queue_waits, runs, http = [], [], []
    hits = 0
    for request, job, _error in run["checked"]:
        hits += bool(job.get("cached"))
        server_s = job.get("latency_s")
        if server_s is not None:
            http.append((request.done - request.sent) - server_s)
        wait = job.get("queue_wait_s")
        if wait is not None and server_s is not None:
            queue_waits.append(wait)
            runs.append(server_s - wait)
    metrics = run["metrics"].get("metrics", {})
    batch = metrics.get("histograms", {}).get("serve.batch_size", {})
    stats = run["cache_stats"]
    return {
        "serve.queue_wait_p50_s": nearest_rank(queue_waits, 0.50),
        "serve.run_p50_s": nearest_rank(runs, 0.50),
        "serve.run_p95_s": nearest_rank(runs, 0.95),
        "serve.http_p50_s": nearest_rank(http, 0.50),
        "serve.result_hit_frac": hits / len(run["checked"]),
        "serve.batch_mean": batch.get("mean") or 0.0,
        "serve.shed": metrics.get("counters", {}).get("serve.shed_total", 0),
        "loadgen.lag_p95_s": nearest_rank(
            [r.sent - r.due for r, _j, _e in run["checked"]], 0.95),
        "exec.cache_stores": stats.stores,
        "exec.cache_hits": stats.hits,
    }
