"""Golden bit-identity suite for the replay engine.

Every case compares a live replay, field for field, with the
``SimStats`` recorded in ``tests/golden/simstats.json`` (see
``tests/golden_replay.py``): every scene, scheduler policy, prefetch
technique preset, and the stream-buffer destination.  The goldens were
recorded while a second, per-cycle replay engine still existed, with
both engines agreeing bit for bit; history is now the oracle.

Also pinned here:

* the per-run deadlock guard (``max_cycles`` bounds one ``run()``, not
  the cumulative cycle counter, so multi-frame sessions never trip it);
* the trailing-event drain: ``stats.cycles`` equals the post-drain
  cycle base used to denominate DRAM utilization;
* cumulative semantics: statistics accumulate across ``load()``/
  ``run()`` rounds and ``run_frame`` deltas sum to the cumulative
  cycle counter.

The guard, drain and cumulative checks run once per trace-generation
backend (the ``trace_backend`` fixture), so the replay is exercised on
traces from both the numpy packet traversal and its scalar reference.
"""

import pytest

from golden_replay import (
    FRAMES_KEY,
    STREAM_KEY,
    TECHNIQUES,
    build_model,
    golden_simstats,
    preset_key,
    presets,
    run_case,
    scene_key,
    skip_unless_pinned_geometry,
    stats_record,
)
from repro.core.pipeline import STORE, set_trace_backend
from repro.gpusim import SimulationLimitError
from repro.scenes import ALL_SCENES

PRESETS = presets()
WKND_TP = scene_key("WKND", "treelet-prefetch")


@pytest.fixture(
    params=[
        pytest.param("vectorized", id="batched"),
        pytest.param("scalar", id="scalar"),
    ]
)
def trace_backend(request):
    """Generate the case's traces with one trace backend: ``batched`` is
    the numpy packet traversal ("vectorized"), ``scalar`` the pure-Python
    reference.  The trace store is not keyed by backend, so its memory
    tier is dropped around the case, and the case must have built its
    traces afresh rather than loaded them from the on-disk tier."""
    STORE.clear("traces")
    built = STORE.builds["traces"]
    set_trace_backend(request.param)
    yield request.param
    set_trace_backend(None)
    STORE.clear("traces")
    assert STORE.builds["traces"] > built, "traces were not rebuilt"


def _check_golden(key):
    skip_unless_pinned_geometry(key)
    assert run_case(key) == golden_simstats(key)


def _frames_golden():
    """Cumulative cycles after each round of the golden WKND session."""
    skip_unless_pinned_geometry(FRAMES_KEY)
    return [round_["cycles"] for round_ in golden_simstats(FRAMES_KEY)]


class TestGoldenBitIdentity:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_matrix(self, name):
        _check_golden(preset_key(name))

    @pytest.mark.parametrize("scene", ALL_SCENES)
    @pytest.mark.parametrize("name", TECHNIQUES)
    def test_all_scenes(self, scene, name):
        _check_golden(scene_key(scene, name))

    def test_stream_buffer_destination(self):
        _check_golden(STREAM_KEY)


class TestDeadlockGuard:
    """``max_cycles`` bounds one run, not the session."""

    @pytest.mark.usefixtures("trace_backend")
    def test_multi_frame_session_never_trips(self):
        # Measure one frame, then replay several frames on a model whose
        # budget covers any single frame but not their sum.  A guard
        # keyed to the cumulative counter would (wrongly) trip here.
        model, traces, bvh, layout = build_model(WKND_TP)
        frame_cycles = model.run().cycles
        budget = 2 * frame_cycles
        model, traces, bvh, layout = build_model(WKND_TP, max_cycles=budget)
        total = model.run().cycles
        for _ in range(3):
            delta = model.run_frame(traces, bvh, layout)
            assert 0 < delta <= budget
            total += delta
        assert total > budget  # the session really exceeded one budget
        assert model._current_cycle == total == _frames_golden()[3]

    @pytest.mark.usefixtures("trace_backend")
    def test_guard_still_fires(self):
        model, _, _, _ = build_model(WKND_TP, max_cycles=5)
        with pytest.raises(SimulationLimitError):
            model.run()


class TestTrailingDrain:
    """The post-run event drain sets the cycle base."""

    @pytest.mark.usefixtures("trace_backend")
    def test_cycle_base_consistency(self):
        model, _, _, _ = build_model(WKND_TP)
        stats = model.run()
        # The drain ran to empty and advanced the cumulative counter.
        assert len(model.events) == 0
        assert model.memsys.drain_complete()
        assert stats.cycles == model._current_cycle
        # Every rate is denominated by the drained cycle base.
        assert stats.dram_utilization == model.memsys.dram.stats.utilization(
            stats.cycles
        )
        rates = stats.per_cycle_rates()
        assert rates["ipc"] == stats.visits_completed / stats.cycles
        assert rates["l2_bandwidth"] == stats.l2_bytes / stats.cycles
        assert rates["dram_utilization"] == stats.dram_utilization

    def test_backends_agree_on_base(self):
        """The drained cycle base and the utilization it denominates
        equal the values both replay engines agreed on when the golden
        was recorded."""
        key = scene_key("SHIP", "treelet-prefetch")
        skip_unless_pinned_geometry(key)
        model, _, _, _ = build_model(key)
        stats = model.run()
        golden = golden_simstats(key)
        assert stats.cycles == golden["cycles"]
        assert stats.dram_utilization == golden["dram_utilization"]


class TestCumulativeSemantics:
    """Stats accumulate across load/run rounds."""

    @pytest.mark.usefixtures("trace_backend")
    def test_two_rounds_accumulate(self):
        model, traces, bvh, layout = build_model(WKND_TP)
        first = model.run()
        model.load(traces, bvh, layout)
        second = model.run()
        assert second.visits_completed == 2 * first.visits_completed
        assert second.ray_count == 2 * first.ray_count
        assert second.cycles > first.cycles
        assert second.cycles == model._current_cycle

    def test_two_rounds_bit_identical_across_backends(self):
        """Two rounds reproduce, field for field, the cumulative stats
        both replay engines agreed on when the golden was recorded."""
        skip_unless_pinned_geometry(FRAMES_KEY)
        model, traces, bvh, layout = build_model(WKND_TP)
        model.run()
        model.load(traces, bvh, layout)
        assert stats_record(model.run()) == golden_simstats(FRAMES_KEY)[1]

    @pytest.mark.usefixtures("trace_backend")
    def test_run_frame_deltas_sum_to_cycle_counter(self):
        model, traces, bvh, layout = build_model(WKND_TP)
        deltas = [model.run().cycles]
        for _ in range(2):
            deltas.append(model.run_frame(traces, bvh, layout))
        assert sum(deltas) == model._current_cycle

    def test_frame_deltas_agree_across_backends(self):
        """``run_frame`` deltas equal the golden session's per-round
        cycle increments (recorded with both replay engines agreeing)."""
        cycles = _frames_golden()
        model, traces, bvh, layout = build_model(WKND_TP)
        deltas = [model.run().cycles] + [
            model.run_frame(traces, bvh, layout) for _ in range(3)
        ]
        assert deltas == [cycles[0]] + [
            b - a for a, b in zip(cycles, cycles[1:])
        ]
