"""Parallel replay fan-out: determinism and fault tolerance.

The replay phase of sweeps fans across the :mod:`repro.exec` process
pool (``prewarm_replays`` — traces built once in the parent, replays in
workers).  The simulation is deterministic, so the fan-out must be
invisible in the results: every ``SimStats`` and every derived summary
statistic is required to be bit-identical to the serial path, including
when workers fail and jobs fall back in-process.
"""

import os
import pickle

import pytest

from repro import BASELINE, SMOKE, TREELET_PREFETCH
from repro.api import run, sweep
from repro.core import clear_caches
from repro.core.pipeline import STORE, build_counts, reset_build_counts
from repro.exec import (
    ExecutionReport,
    Job,
    prewarm_replay_jobs,
    prewarm_replays,
    set_artifact_cache,
)
from repro.exec.executor import _run_job

SCENES = ["WKND", "BUNNY", "SPNZA", "SHIP"]
TECHNIQUES = (BASELINE, TREELET_PREFETCH)

_MAIN_PID = os.getpid()


def _die_in_worker(job):
    if os.getpid() != _MAIN_PID:
        os._exit(13)  # hard crash: no exception, no cleanup
    return _run_job(job)


@pytest.fixture(autouse=True)
def isolated_caches():
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()
    yield
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()


def _serial_results():
    return {
        (scene, technique.label()): run(scene, technique, SMOKE).experiment
        for scene in SCENES
        for technique in TECHNIQUES
    }


class TestReplayFanoutDeterminism:
    def test_sweep_jobs2_bit_identical_four_scenes(self):
        """A replay-fanned sweep (4 scenes x 2 techniques) matches the
        serial sweep stat-for-stat, including the gmean summary."""
        serial = sweep(TREELET_PREFETCH, SCENES, SMOKE)
        clear_caches()
        parallel = sweep(TREELET_PREFETCH, SCENES, SMOKE, jobs=2)
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
            # Bit-identical, not just __eq__: the stats round-trip
            # through worker pickling byte-for-byte.
            assert pickle.dumps(
                parallel.outcomes[scene].candidate.stats
            ) == pickle.dumps(serial.outcomes[scene].candidate.stats)
        assert parallel.gmean_speedup == serial.gmean_speedup
        assert parallel.gmean_power_ratio == serial.gmean_power_ratio

    def test_prewarm_replays_matches_serial_results(self):
        serial = _serial_results()
        clear_caches()
        results = prewarm_replays(TECHNIQUES, SCENES, SMOKE, jobs=2)
        by_key = {
            (result.scene, result.technique.label()): result
            for result in results
        }
        assert set(by_key) == set(serial)
        for key, expected in serial.items():
            assert by_key[key].stats == expected.stats

    def test_prewarm_replays_builds_traces_in_parent(self):
        """The fan-out hoists trace generation: after the call the
        parent's trace memoizer is warm for every pair, so follow-up
        serial evaluations rebuild nothing."""
        prewarm_replays(TECHNIQUES, SCENES, SMOKE, jobs=2)
        before = build_counts()
        for scene in SCENES:
            for technique in TECHNIQUES:
                run(scene, technique, SMOKE)
        assert build_counts() == before  # pure memo lookups

    def test_prewarm_replay_jobs_seeds_result_memoizer(self):
        job = Job("WKND", BASELINE, SMOKE)
        prewarm_replay_jobs([job], workers=1)
        assert STORE.lookup("result", job.inputs()) is not None


class TestReplayWorkerCrash:
    def test_dead_replay_worker_falls_back_bit_identical(self):
        """A worker hard-crash mid-fan-out breaks the pool; every job
        still completes in-process with bit-identical stats."""
        serial = _serial_results()
        clear_caches()
        jobs = [
            Job(scene, technique, SMOKE)
            for scene in SCENES
            for technique in TECHNIQUES
        ]
        report = ExecutionReport()
        results = prewarm_replay_jobs(
            jobs, workers=2, job_fn=_die_in_worker, report=report
        )
        assert report.pool_broken
        assert report.inprocess_fallbacks == len(jobs)
        for job, result in zip(jobs, results):
            expected = serial[(job.scene, job.technique.label())]
            assert result.stats == expected.stats
