"""Tests for repro.exec: the parallel sweep executor and the persistent
artifact cache.

The acceptance bar (ISSUE 2): ``run_sweep(..., jobs=2)`` must produce
``SimStats`` bit-for-bit identical to the serial path, a warm on-disk
cache must let a second invocation skip *all* artifact reconstruction
(asserted via the pipeline's build counters), and a worker that raises
or dies must not take the sweep down with it.
"""

import os
import pickle

import pytest

from repro import BASELINE, SMOKE, TREELET_PREFETCH
from repro.core import (
    build_counts,
    clear_caches,
    compare_techniques,
    reset_build_counts,
    run_experiment,
    run_sweep,
)
from repro.core.pipeline import STORE, get_traces
from repro.exec import (
    ArtifactCache,
    CACHE_SCHEMA_VERSION,
    ExecutionReport,
    Job,
    execute_jobs,
    get_artifact_cache,
    prewarm_replays,
    set_artifact_cache,
)
from repro.exec.executor import _run_job

SCENES = ["WKND", "SHIP"]

#: Captured at import in the test runner; a forked pool worker keeps the
#: value but reports a different os.getpid(), which lets injected job
#: functions misbehave only on the worker side of the fence.
_MAIN_PID = os.getpid()


def _fail_in_worker(job):
    if os.getpid() != _MAIN_PID:
        raise RuntimeError("injected worker failure")
    return _run_job(job)


def _die_in_worker(job):
    if os.getpid() != _MAIN_PID:
        os._exit(13)  # hard crash: no exception, no cleanup
    return _run_job(job)


@pytest.fixture(autouse=True)
def isolated_caches():
    """Every test starts with no active disk cache and cold memoizers."""
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()
    yield
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()


def _trace_shape(traces):
    """Structural view of a trace list (RayTrace has no __eq__)."""
    return [
        (
            trace.ray_id,
            [
                (visit.node_id, visit.is_leaf, visit.primitive_count)
                for visit in trace.visits
            ],
        )
        for trace in traces
    ]


class TestArtifactCache:
    def test_fingerprint_is_deterministic(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        components = {"scene": "WKND", "scale": 0.05, "bytes": 512}
        assert cache.fingerprint("bvh", components) == cache.fingerprint(
            "bvh", dict(reversed(list(components.items())))
        )

    def test_fingerprint_varies_with_inputs_and_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        base = cache.fingerprint("bvh", {"scene": "WKND"})
        assert cache.fingerprint("bvh", {"scene": "SHIP"}) != base
        assert cache.fingerprint("rays", {"scene": "WKND"}) != base

    def test_store_load_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = {"nodes": list(range(32)), "name": "x"}
        fp = cache.fingerprint("bvh", {"scene": "X"})
        path = cache.store("bvh", fp, payload)
        assert path.exists()
        assert f"v{CACHE_SCHEMA_VERSION}" in str(path)
        assert cache.load("bvh", fp) == payload
        assert cache.stats.stores == 1
        assert cache.stats.hits == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load("bvh", "0" * 64) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_dropped(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        fp = cache.fingerprint("traces", {"scene": "X"})
        path = cache.store("traces", fp, [1, 2, 3])
        path.write_bytes(b"not a pickle")
        assert cache.load("traces", fp) is None
        assert not path.exists()  # torn entry removed for rebuild
        assert cache.stats.errors == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path / "store")
        for i in range(3):
            fp = cache.fingerprint("rays", {"i": i})
            cache.store("rays", fp, [i])
        assert cache.entries() == 3
        assert cache.clear() == 3
        assert cache.entries() == 0
        assert cache.clear() == 0  # idempotent on an empty root

    def test_describe_counts_per_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("bvh", cache.fingerprint("bvh", {"i": 1}), [1])
        cache.store("rays", cache.fingerprint("rays", {"i": 1}), [1])
        info = cache.describe()
        assert info["entries"] == 2
        assert info["per_kind"]["bvh"] == 1
        assert info["per_kind"]["rays"] == 1
        assert info["per_kind"]["traces"] == 0
        assert info["size_bytes"] > 0

    def test_global_activation(self, tmp_path):
        assert get_artifact_cache() is None
        active = set_artifact_cache(tmp_path)
        assert get_artifact_cache() is active
        assert active.root == tmp_path
        set_artifact_cache(None)
        assert get_artifact_cache() is None


class TestPipelineSpill:
    def test_traces_round_trip_through_disk(self, tmp_path):
        cache = set_artifact_cache(tmp_path)
        built = get_traces("WKND", SMOKE, "dfs", 512)
        assert cache.stats.stores >= 1
        clear_caches()  # drop memoizers; disk survives
        reloaded = get_traces("WKND", SMOKE, "dfs", 512)
        assert reloaded is not built
        assert cache.stats.hits >= 1
        assert _trace_shape(reloaded) == _trace_shape(built)

    def test_warm_cache_skips_all_reconstruction(self, tmp_path):
        cache = set_artifact_cache(tmp_path)
        cold = run_sweep(TREELET_PREFETCH, SCENES, SMOKE)
        assert any(build_counts().values())
        assert cache.stats.stores >= 1

        clear_caches()
        reset_build_counts()
        warm = run_sweep(TREELET_PREFETCH, SCENES, SMOKE)
        # Every artifact came off disk: nothing was rebuilt — scenes
        # included, since BVH/ray loads never touch the mesh.
        assert build_counts() == {
            "scene": 0, "bvh": 0, "rays": 0, "traces": 0,
            "decomposition": 0,
        }
        assert cache.stats.hits >= 1
        for scene in SCENES:
            assert (
                warm.outcomes[scene].candidate.stats
                == cold.outcomes[scene].candidate.stats
            )

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        set_artifact_cache(tmp_path)
        get_traces("WKND", SMOKE, "dfs", 512)
        clear_caches()
        reset_build_counts()
        monkeypatch.setattr(
            "repro.exec.cache.CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        get_traces("WKND", SMOKE, "dfs", 512)
        # Old entries are no longer addressed: the trace (and the
        # BVH/rays it needs) had to be rebuilt.
        assert build_counts()["traces"] == 1

    def test_cache_off_builds_normally(self):
        get_traces("WKND", SMOKE, "dfs", 512)
        assert build_counts()["traces"] == 1


class TestExecuteJobs:
    def test_serial_path_dedupes(self):
        calls = []

        def fake(job):
            calls.append(job.key())
            return job.scene

        jobs = [
            Job("WKND", BASELINE, SMOKE),
            Job("SHIP", BASELINE, SMOKE),
            Job("WKND", BASELINE, SMOKE),  # duplicate
        ]
        report = ExecutionReport()
        results = execute_jobs(jobs, workers=1, job_fn=fake, report=report)
        assert results == ["WKND", "SHIP", "WKND"]
        assert len(calls) == 2
        assert report.submitted == 2
        assert report.completed == 2

    def test_progress_callback_sees_every_job(self):
        seen = []

        def progress(done, total, job, source):
            seen.append((done, total, job.scene, source))

        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        execute_jobs(
            jobs, workers=1, job_fn=lambda j: j.scene, progress=progress
        )
        assert [s[0] for s in seen] == [1, 2]
        assert all(s[1] == 2 for s in seen)

    def test_raising_progress_callback_never_aborts_jobs(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()

        def broken(done, total, job, source):
            raise RuntimeError("observer bug")

        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        report = ExecutionReport()
        results = execute_jobs(
            jobs, workers=1, job_fn=lambda j: j.scene, progress=broken,
            metrics=registry, report=report,
        )
        # Every job still completed, the failures were counted, and the
        # well-behaved metrics callback still ran.
        assert results == list(SCENES)
        assert report.completed == len(SCENES)
        assert report.progress_errors == len(SCENES)
        assert registry.counter("exec.progress_errors").value == len(SCENES)
        assert registry.counter("exec.jobs_done").value == len(SCENES)

    def test_metrics_counters(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        execute_jobs(
            jobs, workers=1, job_fn=lambda j: j.scene, metrics=registry
        )
        assert registry.counter("exec.jobs_done").value == 2
        assert registry.counter("exec.jobs_inprocess").value == 2

    def test_pool_produces_identical_stats(self):
        serial = {
            scene: run_experiment(scene, TREELET_PREFETCH, SMOKE)
            for scene in SCENES
        }
        clear_caches()
        jobs = [Job(s, TREELET_PREFETCH, SMOKE) for s in SCENES]
        report = ExecutionReport()
        results = execute_jobs(jobs, workers=2, report=report)
        assert report.from_pool == 2
        for scene, result in zip(SCENES, results):
            assert result.stats == serial[scene].stats

    def test_worker_failure_falls_back_in_process(self):
        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        report = ExecutionReport()
        results = execute_jobs(
            jobs, workers=2, job_fn=_fail_in_worker, report=report
        )
        # Every pool attempt raised; the retry raised too; the executor
        # then ran each job right here — with correct results.
        assert report.worker_failures >= 2
        assert report.retried >= 1
        assert report.inprocess_fallbacks == 2
        serial = {s: run_experiment(s, BASELINE, SMOKE) for s in SCENES}
        for scene, result in zip(SCENES, results):
            assert result.stats == serial[scene].stats

    def test_hard_crash_breaks_pool_gracefully(self):
        jobs = [Job(s, BASELINE, SMOKE) for s in SCENES]
        report = ExecutionReport()
        results = execute_jobs(
            jobs, workers=2, job_fn=_die_in_worker, report=report
        )
        assert report.pool_broken
        assert report.inprocess_fallbacks == 2
        assert all(r.stats.cycles > 0 for r in results)


class TestParallelSweeps:
    def test_run_sweep_jobs2_bit_identical(self):
        serial = run_sweep(TREELET_PREFETCH, SCENES, SMOKE)
        clear_caches()
        parallel = run_sweep(TREELET_PREFETCH, SCENES, SMOKE, jobs=2)
        assert parallel.scenes == serial.scenes
        for scene in SCENES:
            assert (
                parallel.outcomes[scene].baseline.stats
                == serial.outcomes[scene].baseline.stats
            )
            assert (
                parallel.outcomes[scene].candidate.stats
                == serial.outcomes[scene].candidate.stats
            )
        assert parallel.gmean_speedup == serial.gmean_speedup
        # SimStats round-trips through worker pickling byte-for-byte.
        assert pickle.dumps(
            parallel.outcomes[SCENES[0]].candidate.stats
        ) == pickle.dumps(serial.outcomes[SCENES[0]].candidate.stats)

    def test_compare_techniques_parallel_matches_serial(self):
        techniques = {"full": TREELET_PREFETCH}
        serial = compare_techniques(techniques, ["WKND"], SMOKE)
        clear_caches()
        parallel = compare_techniques(techniques, ["WKND"], SMOKE, jobs=2)
        assert set(parallel) == set(serial)
        assert (
            parallel["full"].outcomes["WKND"].candidate.stats
            == serial["full"].outcomes["WKND"].candidate.stats
        )

    def test_prewarm_seeds_result_memoizer(self):
        prewarm_replays([BASELINE], ["WKND"], SMOKE, jobs=1)
        seeded = STORE.lookup("result", Job("WKND", BASELINE, SMOKE).inputs())
        assert seeded is not None
        # The follow-up serial call is a pure memo lookup.
        assert run_experiment("WKND", BASELINE, SMOKE) is seeded

    def test_workers_share_disk_cache(self, tmp_path):
        cache = set_artifact_cache(tmp_path)
        run_sweep(TREELET_PREFETCH, SCENES, SMOKE, jobs=2)
        # The pool initializer pointed every worker at tmp_path, so the
        # artifacts are on disk for the *parent* to reload cold.
        assert cache.entries() >= 1
        clear_caches()
        reset_build_counts()
        run_sweep(TREELET_PREFETCH, SCENES, SMOKE)
        assert not any(build_counts().values())


class TestCacheCli:
    def test_cache_info_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        cache = ArtifactCache(tmp_path)
        cache.store("bvh", cache.fingerprint("bvh", {"i": 1}), [1])
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert cache.entries() == 0

    def test_sweep_jobs_flag(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "--scenes", "WKND", "SHIP", "--scale", "smoke",
            "--jobs", "2", "--cache-dir", str(tmp_path / "store"),
        ])
        assert code == 0
        assert "GMean" in capsys.readouterr().out
        assert get_artifact_cache().entries() >= 1
