"""History gate for the paper panel: Figure 7's recorded cycle counts.

``results/experiments.json["fig07_overall_speedup"]`` holds the baseline
and treelet-prefetch cycle counts of the ten default-scale Figure 7
scenes, as recorded by ``benchmarks/bench_fig07_overall_speedup.py``.
Every one must still reproduce exactly: a model change that moves a
single cycle of the paper's headline panel has to re-record it on
purpose.
"""

import json
from pathlib import Path

import pytest

from golden_replay import scene_key, skip_unless_pinned_geometry
from repro.api import run
from repro.core.pipeline import BASELINE, DEFAULT, TREELET_PREFETCH

RECORDED = json.loads(
    (Path(__file__).resolve().parents[1] / "results" / "experiments.json")
    .read_text()
)["fig07_overall_speedup"]
SCENES = sorted(
    name for name, entry in RECORDED.items() if isinstance(entry, dict)
)


def test_panel_covers_the_ten_scenes():
    assert RECORDED["scale"] == DEFAULT.name
    assert len(SCENES) == 10


@pytest.mark.parametrize("scene", SCENES)
def test_fig07_cycles_reproduce(scene):
    skip_unless_pinned_geometry(scene_key(scene, "baseline"))
    entry = RECORDED[scene]
    assert run(scene, BASELINE, DEFAULT).cycles == entry["base_cycles"]
    assert run(scene, TREELET_PREFETCH, DEFAULT).cycles == entry["pref_cycles"]
