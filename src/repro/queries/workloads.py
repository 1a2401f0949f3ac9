"""Workload registry: what ray population an experiment replays.

``render`` is the paper's camera + secondary population; ``knn`` and
``containment`` are the RTNN / Zellmann query workloads compiled by
:mod:`repro.queries.compile`.  The registry is deliberately free of
heavy imports so the API facade and serve protocol can validate
workload names without pulling in numpy-heavy modules.
"""

from __future__ import annotations

from typing import Tuple

#: Every workload an experiment can replay.
WORKLOADS: Tuple[str, ...] = ("render", "knn", "containment")

#: The non-rendering subset (these require a query scene).
QUERY_WORKLOADS: Tuple[str, ...] = ("knn", "containment")

#: Scene kind each query workload requires (see ``repro.scenes.SCENE_KINDS``).
WORKLOAD_SCENE_KIND = {"knn": "points", "containment": "amr"}

#: Neighbors returned per kNN query (RTNN's default regime is small k).
K_NEIGHBORS = 8


def validate_workload(name: str) -> str:
    """Return ``name`` if it is a known workload, else raise ValueError
    with a near-miss suggestion."""
    if not isinstance(name, str):
        raise ValueError(f"workload must be a string, got {type(name).__name__}")
    if name not in WORKLOADS:
        # Imported on the error path only: the registry stays light.
        from ..api.techniques import _suggest

        raise ValueError(
            f"unknown workload {name!r}{_suggest(name, WORKLOADS)} "
            f"(known: {', '.join(WORKLOADS)})"
        )
    return name


def check_scene_workload(scene_name: str, workload: str) -> None:
    """Raise ValueError when ``workload`` cannot run on ``scene_name``.

    ``render`` runs on every scene (query scenes carry a framing
    camera); each query workload needs its matching scene kind.
    """
    validate_workload(workload)
    if workload == "render":
        return
    from ..scenes import SCENE_KINDS

    required = WORKLOAD_SCENE_KIND[workload]
    actual = SCENE_KINDS.get(scene_name)
    if actual != required:
        suitable = sorted(
            name for name, kind in SCENE_KINDS.items() if kind == required
        )
        raise ValueError(
            f"workload {workload!r} needs a {required!r} scene, but "
            f"{scene_name!r} is {actual!r}; choose from {suitable}"
        )
