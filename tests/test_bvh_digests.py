"""Golden digests of every library scene's wide BVH.

``tests/golden/bvh_digests.json`` holds a SHA-256 over each scene's
``FlatBVH`` node arrays (bounds bytes, child ids, primitive ids, parent
ids, depths), built with the pipeline's build parameters.  Any change to
the builder that alters a single bound bit, the primitive order inside a
leaf, or the tree shape changes a digest, and with it every treelet
decomposition, trace, and cycle count downstream.

Each entry also pins a digest of the scene's triangles.  Procedural
geometry goes through trigonometry (numpy's vectorized sin/cos, libm)
that may round differently by one ulp on another CPU, numpy or libc
build; where the input
itself differs, the tree digest says nothing about the builder, so that
case skips with the reason (``test_builder_reference.py`` still checks
the builder there).

Regenerate (only for a deliberate change of the tree) with::

    PYTHONPATH=src python tests/test_bvh_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.bvh import build_wide_bvh
from repro.core.pipeline import DEFAULT, DEFAULT_BRANCHING, DEFAULT_BUILD, SMOKE
from repro.scenes import build_scene, query_scene_names, scene_names

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "bvh_digests.json"

#: Scenes also pinned at default scale: the render-cold and queries-cold
#: benchmark scenes, where the build is largest.
DEFAULT_SCALE_SCENES = ("BATH", "SPRNG", "CRNVL", "PARTY", "PTSUNI", "AMRTWO")


def digest_cases() -> List[Tuple[str, str, float]]:
    """``(key, scene, scene_scale)`` for every pinned build."""
    cases = [(f"{name}|smoke", name, SMOKE.scene_scale)
             for name in scene_names() + query_scene_names()]
    cases += [(f"{name}|default", name, DEFAULT.scene_scale)
              for name in DEFAULT_SCALE_SCENES]
    return cases


def flat_bvh_digest(bvh) -> str:
    """SHA-256 over a ``FlatBVH``'s node arrays, in node-id order."""
    nodes = bvh.nodes
    lo = np.array([node.bounds.lo for node in nodes], dtype="<f8")
    hi = np.array([node.bounds.hi for node in nodes], dtype="<f8")
    parts = [
        lo,
        hi,
        np.array([len(node.child_ids) for node in nodes], dtype="<i8"),
        np.array([c for node in nodes for c in node.child_ids], dtype="<i8"),
        np.array([len(node.primitive_ids) for node in nodes], dtype="<i8"),
        np.array([p for node in nodes for p in node.primitive_ids],
                 dtype="<i8"),
        np.array([node.parent_id for node in nodes], dtype="<i8"),
        np.array([node.depth for node in nodes], dtype="<i8"),
    ]
    sha = hashlib.sha256()
    for part in parts:
        sha.update(np.ascontiguousarray(part).tobytes())
    return sha.hexdigest()


def triangles_digest(triangles) -> str:
    """SHA-256 over the vertices and primitive ids the builder reads."""
    verts = np.array([[tri.v0, tri.v1, tri.v2] for tri in triangles],
                     dtype="<f8")
    ids = np.array([tri.primitive_id for tri in triangles], dtype="<i8")
    return hashlib.sha256(verts.tobytes() + ids.tobytes()).hexdigest()


def record(scene: str, scene_scale: float) -> Dict[str, object]:
    triangles = build_scene(scene, scene_scale).mesh.triangles()
    bvh = build_wide_bvh(
        triangles,
        config=DEFAULT_BUILD,
        branching_factor=DEFAULT_BRANCHING,
        name=scene,
    )
    return {
        "nodes": len(bvh.nodes),
        "sha256": flat_bvh_digest(bvh),
        "triangles_sha256": triangles_digest(triangles),
    }


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(key for key, _, _ in digest_cases())


@pytest.mark.parametrize("key,scene,scene_scale", digest_cases(),
                         ids=[case[0] for case in digest_cases()])
def test_bvh_matches_golden_digest(key, scene, scene_scale):
    golden = json.loads(GOLDEN_PATH.read_text())[key]
    got = record(scene, scene_scale)
    if got["triangles_sha256"] != golden["triangles_sha256"]:
        pytest.skip(f"{key}: scene geometry differs from the recorded "
                    "input on this platform")
    assert got == golden


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    doc = {key: record(scene, scene_scale)
           for key, scene, scene_scale in digest_cases()}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} digests to {GOLDEN_PATH}")
