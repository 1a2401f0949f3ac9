"""The pipeline's artifact store: one two-tier (memory, then disk)
lookup behind every ``get_*`` helper.

The disk tier addresses entries by fingerprint, so those fingerprints
are pinned here: a change to any inputs document would silently orphan
every existing ``results/cache/`` entry.
"""

import pytest

from repro import BASELINE, SMOKE, TREELET_PREFETCH
from repro.core import pipeline
from repro.core.pipeline import (
    STORE,
    build_counts,
    clear_caches,
    get_scene,
    get_traces,
    reset_build_counts,
)
from repro.exec import CACHE_SCHEMA_VERSION, set_artifact_cache
from repro.scenes import library

#: Disk fingerprints of schema version 1 (WKND and AMRTWO, smoke scale).
PINNED = {
    ("bvh", "WKND"):
        "cccf9714960598b8687f547ccaaf68c1dd55005c064e2f4f02e111941fcd98e1",
    ("rays", "WKND"):
        "a7ea37f36bed65efe6325d5b0e333a618aea2874fd5fb760a692e93a420d0dbc",
    ("decomposition", "WKND"):
        "36bdcc71ae135022d89f2dc703214458e4ba0b437552e6f4e88853a0acdfe5d0",
    ("traces", "WKND", "dfs"):
        "046cefcbf5982054c9e04b99bf056af5407fab77d95da6943a5603a1b957d1a8",
    ("traces", "WKND", "treelet"):
        "6976452b2d73cb1317ef016454e3712d947072033dea114edf9d1eb4f9b5e4b1",
    ("bvh", "AMRTWO"):
        "34b408c50b55e0b4c2fb82d786eb007fc36a816b708f86560924e07a2fdf7004",
    ("traces", "AMRTWO", "containment"):
        "9e1721d7da1d1452e555fadca3bf0c0466dadf4afb7627b5b493f47935ab37f0",
}


@pytest.fixture(autouse=True)
def isolated_store():
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()
    yield
    set_artifact_cache(None)
    clear_caches()
    reset_build_counts()


def _stored(root):
    return {
        (path.parent.parent.name, path.stem)
        for path in root.rglob("*.pkl")
    }


class TestPinnedFingerprints:
    def test_schema_version_unchanged(self):
        assert CACHE_SCHEMA_VERSION == 1

    def test_store_keys_match_pinned(self):
        keys = {
            ("bvh", "WKND"): STORE.key(
                "bvh", pipeline._scene_inputs("WKND", SMOKE)
            ),
            ("rays", "WKND"): STORE.key(
                "rays", pipeline._ray_inputs("WKND", SMOKE)
            ),
            ("decomposition", "WKND"): STORE.key(
                "decomposition",
                pipeline._decomposition_inputs("WKND", SMOKE, 512, "bfs"),
            ),
            ("traces", "WKND", "dfs"): STORE.key(
                "traces",
                pipeline._trace_inputs(
                    "WKND", SMOKE, "dfs", 0, "nearest", "bfs"
                ),
            ),
            ("traces", "WKND", "treelet"): STORE.key(
                "traces",
                pipeline._trace_inputs(
                    "WKND", SMOKE, "treelet", 512, "nearest", "bfs"
                ),
            ),
            ("bvh", "AMRTWO"): STORE.key(
                "bvh", pipeline._scene_inputs("AMRTWO", SMOKE)
            ),
            ("traces", "AMRTWO", "containment"): STORE.key(
                "traces",
                pipeline._trace_inputs(
                    "AMRTWO", SMOKE, "dfs", 0, "nearest", "bfs",
                    "containment",
                ),
            ),
        }
        assert keys == PINNED

    def test_pipeline_writes_pinned_paths(self, tmp_path):
        """What the pipeline actually spills lands under the pinned
        fingerprints (and nothing else does)."""
        set_artifact_cache(tmp_path)
        for technique in (BASELINE, TREELET_PREFETCH):
            get_traces(
                "WKND", SMOKE, technique.traversal, technique.treelet_bytes,
                technique.deferred_order, technique.formation,
            )
        get_traces("AMRTWO", SMOKE, "dfs", 0, workload="containment")
        assert _stored(tmp_path / "v1") == {
            (kind, fingerprint) for (kind, *_), fingerprint in PINNED.items()
        }


class TestSceneMemo:
    def test_clear_caches_rebuilds_scene_and_counts_real_builds(
        self, monkeypatch
    ):
        real_builds = []
        builder = library._BUILDERS["WKND"]

        def counting_builder(*args):
            real_builds.append(args)
            return builder(*args)

        monkeypatch.setitem(library._BUILDERS, "WKND", counting_builder)
        first = get_scene("WKND", SMOKE)
        assert get_scene("WKND", SMOKE) is first
        clear_caches()
        second = get_scene("WKND", SMOKE)
        assert second is not first
        assert len(real_builds) == 2
        assert build_counts()["scene"] == len(real_builds)

    def test_direct_build_scene_is_shared_not_counted(self):
        scene = library.build_scene("WKND", SMOKE.scene_scale)
        assert get_scene("WKND", SMOKE) is scene
        assert build_counts()["scene"] == 0


class TestTwoTiers:
    def test_disk_hit_is_not_a_build(self, tmp_path):
        set_artifact_cache(tmp_path)
        inputs = {"scene": "X"}
        STORE.get("decomposition", inputs, lambda: ["built"])
        STORE.clear()
        reset_build_counts()
        loaded = STORE.get("decomposition", inputs, pytest.fail)
        assert loaded == ["built"]
        assert build_counts()["decomposition"] == 0
        # The disk hit now lives in memory too.
        set_artifact_cache(None)
        assert STORE.lookup("decomposition", inputs) is loaded

    def test_memory_only_kinds_never_touch_disk(self, tmp_path):
        set_artifact_cache(tmp_path)
        STORE.get("result", {"scene": "X"}, lambda: "result")
        STORE.get("query_plan", {"scene": "X"}, lambda: "plan")
        assert not list(tmp_path.rglob("*.pkl"))
        assert build_counts()["rays"] == 1  # a query plan is a ray set

    def test_put_keeps_the_first_artifact(self):
        first = STORE.put("result", {"scene": "X"}, ["first"])
        assert STORE.put("result", {"scene": "X"}, ["second"]) is first

    def test_clear_one_kind(self):
        STORE.put("traces", {"scene": "X"}, ["t"])
        STORE.put("result", {"scene": "X"}, ["r"])
        STORE.clear("traces")
        assert STORE.lookup("traces", {"scene": "X"}) is None
        assert STORE.lookup("result", {"scene": "X"}) is not None
