"""Observer invariance + end-to-end export checks (the tentpole's contract).

Attaching the trace bus to a run must not change a single field of
``SimStats``, on any (scene, technique) pair — tracing is observation,
never perturbation — and the observed run must take the production
path, delivering the event multiset pinned in
``tests/golden/obs_events.json``.  The exported Chrome trace must be valid JSON with
per-track monotonically nondecreasing timestamps, and the run report
must carry the demand-latency and prefetch-timeliness histograms.
"""

import dataclasses
import json

import pytest

from golden_replay import (
    OBS_CASES,
    build_model,
    events_record,
    golden_events,
    golden_simstats,
    observed_run,
    skip_unless_pinned_geometry,
    stats_record,
)
from repro import BASELINE, SMOKE, TREELET_PREFETCH, run_experiment
from repro.cli import main
from repro.obs import Observer, build_run_report, to_chrome_trace

SCENES = ("WKND", "SHIP")
TECHNIQUES = {"baseline": BASELINE, "treelet-prefetch": TREELET_PREFETCH}


def _observed_pair(scene, technique):
    plain = run_experiment(scene, technique, SMOKE, use_cache=False)
    observer = Observer()
    traced = run_experiment(scene, technique, SMOKE, observer=observer)
    return plain, traced, observer


class TestObserverInvariance:
    @pytest.mark.parametrize("scene", SCENES)
    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_simstats_bit_identical(self, scene, name):
        plain, traced, _ = _observed_pair(scene, TECHNIQUES[name])
        assert dataclasses.asdict(traced.stats) == dataclasses.asdict(
            plain.stats
        )

    @pytest.mark.parametrize("key", OBS_CASES)
    def test_event_stream_matches_golden(self, key):
        """The delivered event multiset is pinned by
        ``tests/golden/obs_events.json``; observing changes no field of
        ``SimStats``; every DRAM request is reported exactly once."""
        skip_unless_pinned_geometry(key)
        model, _, _, _ = build_model(key)
        plain = stats_record(model.run())
        stats, _, delivered = observed_run(key)
        assert stats_record(stats) == plain == golden_simstats(key)
        record = events_record(delivered)
        assert record == golden_events(key)
        assert record["kinds"]["dram.service"] == stats.dram_accesses

    def test_observed_run_takes_the_production_path(self, monkeypatch):
        """An observed replay runs the agenda memory system and the fused
        L1-hit path: L2 transfers are classified in ``_flush``, every L1
        demand hit is delivered from the unit's hit FIFO, and no L1
        demand probe goes through ``Cache.probe``."""
        from repro.gpusim.cache import Cache
        from repro.gpusim.memsys import MemorySystem
        from repro.gpusim.rtunit import RTUnit

        calls = {"flush": 0, "fused_hits": 0, "l1_demand_probes": 0}
        flush = MemorySystem._flush
        deliver = RTUnit.run_tests_due
        probe = Cache.probe

        def counting_flush(self, at):
            calls["flush"] += 1
            flush(self, at)

        def counting_deliver(self, cycle):
            calls["fused_hits"] += sum(
                1 for response in self._hit_responses if response[0] <= cycle
            )
            deliver(self, cycle)

        def counting_probe(self, line, is_prefetch, waiter=None, cycle=0):
            if self.name.startswith("L1") and not is_prefetch:
                calls["l1_demand_probes"] += 1
            return probe(self, line, is_prefetch, waiter, cycle)

        monkeypatch.setattr(MemorySystem, "_flush", counting_flush)
        monkeypatch.setattr(RTUnit, "run_tests_due", counting_deliver)
        monkeypatch.setattr(Cache, "probe", counting_probe)
        stats, observer, _ = observed_run("scene|SHIP|treelet-prefetch")
        assert calls["flush"] > 0
        assert calls["fused_hits"] == stats.l1.demand_hits > 0
        assert calls["l1_demand_probes"] == 0
        assert observer.bus.kinds()["demand.complete"] == (
            stats.l1.demand_accesses
        )

    def test_metrics_agree_with_stats(self):
        _, traced, observer = _observed_pair("WKND", TREELET_PREFETCH)
        metrics = observer.metrics
        # Every demand response was recorded in the latency histogram.
        hist = metrics.histograms["latency.demand.all"]
        assert hist.count > 0
        assert hist.mean == pytest.approx(traced.stats.avg_demand_latency)
        node = metrics.histograms["latency.demand.node"]
        assert node.mean == pytest.approx(
            traced.stats.avg_node_demand_latency
        )
        # Counters mirror the simulation-side aggregates exactly.
        assert (
            metrics.counters["prefetch.issued"].value
            == traced.stats.prefetches_issued
        )
        assert (
            metrics.counters["dram.accesses"].value
            == traced.stats.dram_accesses
        )
        assert (
            metrics.counters["warps.retired"].value == traced.stats.warp_count
        )
        per_partition = [
            metrics.counters[f"dram.partition{p}.accesses"].value
            for p in range(len(traced.stats.dram_per_partition))
        ]
        assert per_partition == traced.stats.dram_per_partition
        assert (
            metrics.counters["rtunit.stall_cycles"].value
            == traced.stats.stall_cycles
        )

    def test_prefetch_timeliness_histograms_populate(self):
        _, traced, observer = _observed_pair("WKND", TREELET_PREFETCH)
        assert traced.stats.prefetches_issued > 0
        hists = observer.metrics.histograms
        assert hists["prefetch.issue_to_fill"].count > 0
        assert hists["prefetch.fill_to_first_hit"].count > 0

    def test_event_taxonomy_coverage(self):
        _, _, observer = _observed_pair("WKND", TREELET_PREFETCH)
        kinds = set(observer.bus.kinds())
        assert {
            "warp.issue",
            "warp.retire",
            "rtunit.stall",
            "cache.access",
            "mshr.merge",
            "dram.service",
            "demand.complete",
            "prefetch.issue",
            "prefetch.fill",
            "voter.decide",
        } <= kinds


class TestPerfettoRoundTrip:
    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_trace_round_trips_with_monotonic_tracks(self, name):
        _, _, observer = _observed_pair("SHIP", TECHNIQUES[name])
        doc = json.loads(
            json.dumps(to_chrome_trace(observer.bus, observer.metrics))
        )
        events = doc["traceEvents"]
        timed = [e for e in events if e["ph"] != "M"]
        assert timed
        last_ts = {}
        for event in timed:
            key = (event.get("pid"), event.get("tid"))
            assert event["ts"] >= last_ts.get(key, 0)
            last_ts[key] = event["ts"]

    def test_cli_trace_meets_acceptance_bar(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert (
            main(
                ["trace", "WKND", "--scale", "smoke", "--out", str(out)]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        track_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # >= 3 distinct track families: SM, RT unit, DRAM partition.
        assert any(t.startswith("SM") for t in track_names)
        assert any(t.startswith("RT") for t in track_names)
        assert any(t.startswith("DRAM[") for t in track_names)
        kinds = {
            e["cat"] for e in doc["traceEvents"] if e["ph"] in ("X", "i")
        }
        assert len(kinds) >= 5

    def test_cli_run_report_has_histograms(self, tmp_path):
        out = tmp_path / "report.json"
        assert (
            main(
                ["run", "WKND", "--scale", "smoke", "--report", str(out)]
            )
            == 0
        )
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.run_report/1"
        hists = report["metrics"]["histograms"]
        assert hists["latency.demand.all"]["count"] > 0
        assert "prefetch.issue_to_fill" in hists
        assert "prefetch.fill_to_first_hit" in hists
        assert report["stats"]["cycles"] > 0

    def test_cli_run_json_is_machine_readable(self, capsys):
        assert main(["run", "WKND", "--scale", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["l1"]["demand_accesses"] > 0
        assert payload["baseline"]["effectiveness"]["timely"] == 0
        assert payload["speedup"] > 0

    def test_cli_sweep_json(self, capsys):
        assert (
            main(
                ["sweep", "--scenes", "WKND", "--scale", "smoke", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert "WKND" in payload["scenes"]
        assert payload["gmean_speedup"] > 0


class TestSpanInvariance:
    """Request spans obey the same contract as the trace bus: pure
    observation.  Collection on must leave SimStats bit-identical, and
    the instrumented BENCH_e2e workload must stay within 5% of plain."""

    @pytest.mark.parametrize("scene", SCENES)
    @pytest.mark.parametrize("name", sorted(TECHNIQUES))
    def test_simstats_bit_identical_with_spans_active(self, scene, name):
        from repro.obs import collect

        plain = run_experiment(
            scene, TECHNIQUES[name], SMOKE, use_cache=False
        )
        with collect(process="invariance") as collector:
            spanned = run_experiment(
                scene, TECHNIQUES[name], SMOKE, use_cache=False
            )
        assert dataclasses.asdict(spanned.stats) == dataclasses.asdict(
            plain.stats
        )
        # Collection actually happened — phases were recorded.
        names = {s.name for s in collector.snapshot()}
        assert {"phase.scene_build", "phase.trace", "phase.replay"} <= names

    def test_span_overhead_within_5_percent_of_bench_e2e(self):
        import time

        from repro.core.pipeline import clear_caches
        from repro.obs import collect

        def cold_e2e():
            # The BENCH_e2e workload: cold treelet-prefetch evaluation.
            clear_caches()
            start = time.perf_counter()
            run_experiment("WKND", TREELET_PREFETCH, SMOKE)
            return time.perf_counter() - start

        def best_of(fn, repeats=3):
            return min(fn() for _ in range(repeats))

        # Timing on a shared box is noisy; spans add ~a dozen contextvar
        # reads per run, so any honest measurement passes.  Retry up to
        # three times before declaring a real regression.
        for attempt in range(3):
            plain = best_of(cold_e2e)
            with collect(process="bench"):
                spanned = best_of(cold_e2e)
            if spanned <= plain * 1.05:
                break
        else:
            raise AssertionError(
                f"span overhead {spanned / plain - 1.0:.1%} exceeds 5% "
                f"(plain={plain:.4f}s spanned={spanned:.4f}s)"
            )
        clear_caches()
