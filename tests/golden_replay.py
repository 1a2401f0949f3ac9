"""Committed goldens for the replay engine: statistics and event streams.

Two files under ``tests/golden/`` pin what a replay produces, so that a
change to the engine is checked against recorded history rather than
against a second engine:

* ``simstats.json`` — the full ``dataclasses.asdict(SimStats)`` of every
  case in :func:`simstats_cases`: the 16 render scenes with and without
  treelet prefetching, the technique-preset matrix on CAR, the stream
  buffer destination on WKND, the query scenes under both techniques,
  and a four-round multi-frame session on WKND (one cumulative
  ``SimStats`` per round).
* ``obs_events.json`` — for each observed run in :data:`OBS_CASES`, the
  count, per-kind counts and a SHA-256 over the sorted multiset of every
  event the trace bus delivered to subscribers, each event written as
  ``[kind, cycle, track, dur, args]``.  Delivery order is not pinned;
  the content of every event is.

Every value is a smoke-scale run.  Procedural geometry goes through
trigonometry that may round differently on another platform, so a case
whose scene triangles differ from ``bvh_digests.json`` skips with that
reason (see :func:`skip_unless_pinned_geometry`).

The committed ``simstats.json`` was recorded while the model still had
a second, per-cycle replay engine, and the generator refused to write it
unless both engines agreed bit for bit; ``obs_events.json`` was recorded
from two observed runs of each case that agreed.  Regenerate (only for
a deliberate change of the model, which must then say why every
changed value changed) with::

    PYTHONPATH=src python tests/golden_replay.py

The generator still refuses to write an event stream whose two runs
disagree, or whose observed statistics differ from the unobserved ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SIMSTATS_PATH = GOLDEN_DIR / "simstats.json"
OBS_EVENTS_PATH = GOLDEN_DIR / "obs_events.json"
BVH_DIGESTS_PATH = GOLDEN_DIR / "bvh_digests.json"


def presets() -> Dict[str, object]:
    """Technique presets covering every scheduler policy, voter mode,
    heuristic, mapping mode, and prefetcher family the model supports."""
    from repro.core.pipeline import BASELINE, TREELET_PREFETCH, Technique

    replace = dataclasses.replace
    return {
        "baseline": BASELINE,
        "treelet-prefetch": TREELET_PREFETCH,
        "tp-omr": replace(TREELET_PREFETCH, scheduler="omr"),
        "tp-baseline-sched": replace(TREELET_PREFETCH, scheduler="baseline"),
        "tp-adaptive": replace(TREELET_PREFETCH, adaptive=True),
        "tp-voter-latency": replace(TREELET_PREFETCH, voter_latency=8),
        "mapping-loose": replace(
            TREELET_PREFETCH, layout="dfs", mapping_mode="loose"
        ),
        "mapping-strict": replace(
            TREELET_PREFETCH, layout="dfs", mapping_mode="strict"
        ),
        "mta": replace(TREELET_PREFETCH, prefetch="mta"),
        "stride": Technique(prefetch="stride"),
        "ghb": Technique(prefetch="ghb"),
        "traversal-only": replace(TREELET_PREFETCH, prefetch=None),
    }


#: Query scenes and the workload each one runs.
QUERY_CASES = (("PTSUNI", "knn"), ("PTSCLU", "knn"), ("AMRTWO", "containment"))
#: The two techniques every scene is pinned under.
TECHNIQUES = ("baseline", "treelet-prefetch")
#: Rounds of the multi-frame session (one ``run`` then ``run_frame``s).
FRAME_ROUNDS = 4


def scene_key(scene: str, name: str) -> str:
    return f"scene|{scene}|{name}"


def preset_key(name: str) -> str:
    return f"preset|CAR|{name}"


def query_key(scene: str, workload: str, name: str) -> str:
    return f"query|{scene}|{workload}|{name}"


STREAM_KEY = "stream|WKND|treelet-prefetch"
FRAMES_KEY = "frames|WKND|treelet-prefetch"

#: Observed runs whose delivered event streams are pinned.
OBS_CASES = (
    scene_key("WKND", "baseline"),
    scene_key("WKND", "treelet-prefetch"),
    scene_key("SHIP", "baseline"),
    scene_key("SHIP", "treelet-prefetch"),
    STREAM_KEY,
    query_key("PTSUNI", "knn", "treelet-prefetch"),
)


def case_spec(key: str) -> Tuple[str, object, str, dict]:
    """``(scene, technique, workload, gpu overrides)`` of a single-run
    case key."""
    kind, scene, *rest = key.split("|")
    overrides: dict = {}
    workload = "render"
    if kind == "query":
        workload, name = rest
    else:
        (name,) = rest
    if kind == "stream":
        overrides["prefetch_destination"] = "stream"
    return scene, presets()[name], workload, overrides


def simstats_keys() -> List[str]:
    from repro.scenes import ALL_SCENES

    keys = [scene_key(scene, name)
            for scene in ALL_SCENES for name in TECHNIQUES]
    keys += [preset_key(name) for name in presets()]
    keys.append(STREAM_KEY)
    keys += [query_key(scene, workload, name)
             for scene, workload in QUERY_CASES for name in TECHNIQUES]
    keys.append(FRAMES_KEY)
    return keys


def stats_record(stats) -> dict:
    """``SimStats`` as the JSON document the golden file stores."""
    return json.loads(json.dumps(dataclasses.asdict(stats)))


def build_model(key: str, observer=None, **overrides):
    """A loaded model for a single-run case: ``(model, traces, bvh,
    layout)``.  ``overrides`` replace fields of the smoke GPU config."""
    from repro.core.pipeline import SMOKE, build_gpu_model

    scene, technique, workload, case_overrides = case_spec(key)
    config = dataclasses.replace(
        SMOKE.gpu_config(), **{**case_overrides, **overrides}
    )
    return build_gpu_model(
        scene, technique, SMOKE, config, workload=workload,
        observer=observer,
    )


def frame_rounds(**overrides) -> List[dict]:
    """Cumulative stats after each round of a WKND multi-frame session."""
    model, traces, bvh, layout = build_model(
        scene_key("WKND", "treelet-prefetch"), **overrides
    )
    rounds = [stats_record(model.run())]
    for _ in range(FRAME_ROUNDS - 1):
        model.load(traces, bvh, layout)
        rounds.append(stats_record(model.run()))
    return rounds


def run_case(key: str):
    """The golden record of one ``simstats.json`` case."""
    if key == FRAMES_KEY:
        return frame_rounds()
    model, _, _, _ = build_model(key)
    return stats_record(model.run())


def observed_run(key: str):
    """Replay ``key`` with an Observer attached; returns ``(stats,
    observer, delivered events)``, the events collected by subscribing
    to every kind (never truncated by the bus's retention cap)."""
    from repro.obs import Observer
    from repro.obs.events import ALL_EVENT_KINDS

    observer = Observer()
    delivered: list = []
    for kind in ALL_EVENT_KINDS:
        observer.bus.subscribe(kind, delivered.append)
    model, _, _, _ = build_model(key, observer=observer)
    return model.run(), observer, delivered


def events_record(events) -> dict:
    """Count, per-kind counts, and the multiset digest of ``events``."""
    lines = sorted(
        json.dumps([e.kind, e.cycle, e.track, e.dur, e.args],
                   sort_keys=True, separators=(",", ":"))
        for e in events
    )
    kinds: Dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"events": len(lines), "kinds": dict(sorted(kinds.items())),
            "sha256": sha}


@lru_cache(maxsize=None)
def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def golden_simstats(key: str):
    return _load(SIMSTATS_PATH)["cases"][key]


def golden_events(key: str) -> dict:
    return _load(OBS_EVENTS_PATH)["cases"][key]


@lru_cache(maxsize=None)
def _geometry_mismatch(scene: str):
    from test_bvh_digests import triangles_digest

    from repro.core.pipeline import SMOKE
    from repro.scenes import build_scene

    pinned = _load(BVH_DIGESTS_PATH)[f"{scene}|smoke"]["triangles_sha256"]
    actual = triangles_digest(
        build_scene(scene, SMOKE.scene_scale).mesh.triangles()
    )
    return None if actual == pinned else actual


def skip_unless_pinned_geometry(key: str) -> None:
    """Skip when the case's scene triangles differ from the pinned ones:
    the goldens then say nothing about the engine."""
    import pytest

    scene = key.split("|")[1]
    if _geometry_mismatch(scene) is not None:
        pytest.skip(f"{scene} smoke geometry differs on this platform; "
                    "the goldens were recorded from other triangles")


def _write(path: Path, note: str, cases: dict) -> None:
    doc = {"note": note, "cases": cases}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {path}", file=sys.stderr)


def generate() -> None:
    simstats = {}
    for key in simstats_keys():
        simstats[key] = run_case(key)
        print(key, file=sys.stderr)
    # Two observed runs must agree, and observing must not change the
    # statistics.
    events = {}
    for key in OBS_CASES:
        records = []
        for _ in range(2):
            stats, _, delivered = observed_run(key)
            if stats_record(stats) != simstats[key]:
                raise SystemExit(f"{key}: observed stats differ from plain")
            records.append(events_record(delivered))
        if records[0] != records[1]:
            raise SystemExit(f"{key}: event stream is not deterministic")
        events[key] = records[0]
        print(key, events[key]["events"], file=sys.stderr)
    _write(SIMSTATS_PATH, "Smoke-scale replays.", simstats)
    _write(OBS_EVENTS_PATH,
           "Smoke-scale observed replays; two runs of each gave the same "
           "digest.", events)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    generate()
