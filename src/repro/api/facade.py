"""The ``repro.api`` facade: run / sweep / compare, with typed requests.

One front door for evaluating techniques, replacing the scattered entry
points that each grew their own keyword surface
(``core.pipeline.run_experiment``, ``core.sweeps.run_sweep``,
``exec.run_sweep_parallel`` — all kept as thin deprecation shims that
forward here).  The facade accepts techniques as objects **or** spec
strings (:func:`repro.api.parse_technique`) and scales as objects or
names, and it owns the fast paths: serial sweeps batch all missing
trace generation through the vectorized forest driver
(:func:`repro.core.pipeline.prewarm_traces`), parallel sweeps fan
evaluations across the :mod:`repro.exec` worker pool.  Results are
bit-identical whichever path runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

from ..core.pipeline import (
    BASELINE,
    DEFAULT,
    SCALES,
    ExperimentResult,
    Scale,
    Technique,
    _run_experiment,
    prewarm_traces,
)
from ..core.sweeps import SceneOutcome, SweepResult
from ..obs.spans import span as _span
from .techniques import _suggest, parse_technique, technique_to_spec

TechniqueLike = Union[Technique, str]
ScaleLike = Union[Scale, str]


def _coerce_scale(scale: ScaleLike) -> Scale:
    if isinstance(scale, Scale):
        return scale
    try:
        return SCALES[scale.strip().lower()]
    except (AttributeError, KeyError):
        known = ", ".join(SCALES)
        raise ValueError(f"unknown scale {scale!r} (known: {known})")


def _coerce_technique(technique: TechniqueLike) -> Technique:
    return parse_technique(technique)


def _default_scenes(workload: str = "render") -> List[str]:
    from ..scenes import ALL_SCENES, SCENE_KINDS, QUERY_SCENES

    if workload == "render":
        return list(ALL_SCENES)
    from ..queries.workloads import WORKLOAD_SCENE_KIND

    required = WORKLOAD_SCENE_KIND[workload]
    return [name for name in QUERY_SCENES if SCENE_KINDS[name] == required]


def _coerce_workload(workload: str) -> str:
    from ..queries.workloads import validate_workload

    return validate_workload(workload)


def _scale_name(scale: ScaleLike) -> str:
    return _coerce_scale(scale).name


def _check_fields(payload: dict, known: tuple, ignore: tuple,
                  what: str) -> dict:
    """Filter ``payload`` down to ``known`` keys, rejecting unknowns
    with the same near-miss suggestions :func:`parse_technique` gives
    (``ignore`` keys — transport-level fields a caller layers on top —
    are skipped but still count as suggestion candidates)."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"{what} document must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    data = {}
    candidates = (*known, *ignore)
    for key, value in payload.items():
        if key in ignore:
            continue
        if key not in known:
            raise ValueError(
                f"unknown {what} field {key!r}{_suggest(key, candidates)} "
                f"(known: {', '.join(known)})"
            )
        data[key] = value
    return data


def _check_str(data: dict, key: str, what: str,
               required: bool = False) -> None:
    if required and key not in data:
        raise ValueError(f"{what} document is missing required {key!r}")
    if key in data and not isinstance(data[key], str):
        raise ValueError(
            f"{what} field {key!r} must be a string, "
            f"got {type(data[key]).__name__}"
        )


_RUN_WIRE_FIELDS = (
    "scene", "technique", "scale", "workload", "cache", "trace_backend",
    "replay_backend",
)


@dataclass(frozen=True)
class RunRequest:
    """Everything one evaluation needs, as data.

    ``technique`` and ``scale`` accept spec strings (resolved with
    :func:`parse_technique` / by scale name) or the objects themselves.
    ``cache=False`` bypasses the in-process result memo;
    ``trace_backend`` forces "vectorized" or "scalar" trace generation
    for this run (they are bit-identical; None uses the process
    default).  ``replay_backend`` likewise forces the "batched" or
    "scalar" replay engine (bit-identical statistics; None uses
    ``$REPRO_REPLAY_BACKEND`` and then the config default, "batched").
    ``workload`` picks the ray population: "render" (the paper's
    camera + secondary rays) or a :mod:`repro.queries` workload
    ("knn"/"containment", which require a matching query scene).

    :meth:`to_dict` / :meth:`from_dict` round-trip the request through
    JSON (techniques as spec strings, scales by name) so services can
    forward it losslessly; ``gpu_config`` and ``observer`` are live
    objects and deliberately have no wire form.
    """

    scene: str
    technique: TechniqueLike = BASELINE
    scale: ScaleLike = DEFAULT
    workload: str = "render"
    gpu_config: Optional[object] = None
    cache: bool = True
    observer: Optional[object] = None
    trace_backend: Optional[str] = None
    replay_backend: Optional[str] = None

    def to_dict(self) -> dict:
        """The JSON-safe form of this request (defaults elided).

        Raises ``ValueError`` if the request carries live objects
        (``gpu_config``, ``observer``) that cannot travel as JSON.
        """
        if self.gpu_config is not None:
            raise ValueError(
                "RunRequest.gpu_config does not serialize; configure the "
                "GPU model on the evaluating side"
            )
        if self.observer is not None:
            raise ValueError("RunRequest.observer does not serialize")
        doc: Dict[str, object] = {
            "scene": self.scene,
            "technique": technique_to_spec(self.technique),
            "scale": _scale_name(self.scale),
        }
        if self.workload != "render":
            doc["workload"] = _coerce_workload(self.workload)
        if not self.cache:
            doc["cache"] = False
        if self.trace_backend is not None:
            doc["trace_backend"] = self.trace_backend
        if self.replay_backend is not None:
            doc["replay_backend"] = self.replay_backend
        return doc

    @classmethod
    def from_dict(cls, payload: dict, *,
                  ignore: tuple = ()) -> "RunRequest":
        """Parse a :meth:`to_dict` document (strictly).

        Unknown keys raise ``ValueError`` with a near-miss suggestion;
        ``ignore`` names transport-level keys a carrier protocol layers
        on top (they are skipped, not errors).  Technique and scale are
        validated eagerly so a bad spec fails here, not mid-run.
        """
        data = _check_fields(payload, _RUN_WIRE_FIELDS, ignore, "RunRequest")
        _check_str(data, "scene", "RunRequest", required=True)
        for key in ("technique", "scale", "workload", "trace_backend",
                    "replay_backend"):
            _check_str(data, key, "RunRequest")
        if "cache" in data and not isinstance(data["cache"], bool):
            raise ValueError(
                "RunRequest field 'cache' must be a boolean, "
                f"got {type(data['cache']).__name__}"
            )
        request = cls(**data)
        _coerce_technique(request.technique)
        _coerce_scale(request.scale)
        _coerce_workload(request.workload)
        return request


_SWEEP_WIRE_FIELDS = (
    "technique", "scenes", "scale", "workload", "baseline", "jobs",
)


@dataclass(frozen=True)
class SweepRequest:
    """A sweep, as data: one technique against a baseline over scenes.

    The typed counterpart of :func:`sweep`'s keyword surface, with the
    same JSON round-trip contract as :class:`RunRequest`
    (:meth:`to_dict` / :meth:`from_dict`).  ``scenes=None`` means the
    workload's default scene set (the full 16-scene library for
    "render", the matching query scenes otherwise), resolved at
    evaluation time.
    """

    technique: TechniqueLike
    scenes: Optional[tuple] = None
    scale: ScaleLike = DEFAULT
    workload: str = "render"
    baseline: TechniqueLike = BASELINE
    jobs: int = 1

    def to_dict(self) -> dict:
        doc: Dict[str, object] = {
            "technique": technique_to_spec(self.technique),
            "scale": _scale_name(self.scale),
        }
        if self.workload != "render":
            doc["workload"] = _coerce_workload(self.workload)
        if self.scenes is not None:
            doc["scenes"] = list(self.scenes)
        baseline_spec = technique_to_spec(self.baseline)
        if baseline_spec != "baseline":
            doc["baseline"] = baseline_spec
        if self.jobs != 1:
            doc["jobs"] = self.jobs
        return doc

    @classmethod
    def from_dict(cls, payload: dict, *,
                  ignore: tuple = ()) -> "SweepRequest":
        data = _check_fields(
            payload, _SWEEP_WIRE_FIELDS, ignore, "SweepRequest"
        )
        _check_str(data, "technique", "SweepRequest", required=True)
        _check_str(data, "baseline", "SweepRequest")
        _check_str(data, "scale", "SweepRequest")
        _check_str(data, "workload", "SweepRequest")
        if "scenes" in data:
            scenes = data["scenes"]
            if (not isinstance(scenes, (list, tuple))
                    or not all(isinstance(s, str) for s in scenes)):
                raise ValueError(
                    "SweepRequest field 'scenes' must be a list of "
                    "scene names"
                )
            data["scenes"] = tuple(scenes)
        if "jobs" in data:
            if not isinstance(data["jobs"], int) or data["jobs"] < 1:
                raise ValueError(
                    "SweepRequest field 'jobs' must be a positive integer"
                )
        request = cls(**data)
        _coerce_technique(request.technique)
        _coerce_technique(request.baseline)
        _coerce_scale(request.scale)
        _coerce_workload(request.workload)
        return request


@dataclass
class RunResult:
    """One evaluation, resolved: the request plus everything it produced."""

    scene: str
    technique: Technique
    scale: Scale
    experiment: ExperimentResult = field(repr=False)
    workload: str = "render"

    @property
    def stats(self):
        """The run's :class:`~repro.gpusim.SimStats`."""
        return self.experiment.stats

    @property
    def cycles(self) -> int:
        return self.experiment.cycles

    @property
    def power(self):
        return self.experiment.power

    @property
    def traversal(self):
        return self.experiment.traversal

    @property
    def tree(self):
        return self.experiment.tree

    @property
    def treelet_count(self) -> int:
        return self.experiment.treelet_count

    def speedup_over(self, baseline: "RunResult") -> float:
        """Cycle-ratio speedup of this run over ``baseline``."""
        from ..core.pipeline import speedup as _speedup

        return _speedup(baseline.experiment, self.experiment)


def run(
    scene: Union[str, RunRequest],
    technique: TechniqueLike = BASELINE,
    scale: ScaleLike = DEFAULT,
    *,
    workload: str = "render",
    gpu_config=None,
    cache: bool = True,
    observer=None,
    trace_backend: Optional[str] = None,
    replay_backend: Optional[str] = None,
) -> RunResult:
    """Evaluate one technique on one scene; the front door for single runs.

    Accepts either positional ``(scene, technique, scale)`` arguments or
    a single :class:`RunRequest`.  Returns a :class:`RunResult` whose
    ``stats`` are bit-identical to the deprecated
    ``core.pipeline.run_experiment`` path.
    """
    if isinstance(scene, RunRequest):
        request = scene
    else:
        request = RunRequest(
            scene=scene,
            technique=technique,
            scale=scale,
            workload=workload,
            gpu_config=gpu_config,
            cache=cache,
            observer=observer,
            trace_backend=trace_backend,
            replay_backend=replay_backend,
        )
    resolved_technique = _coerce_technique(request.technique)
    resolved_scale = _coerce_scale(request.scale)
    resolved_workload = _coerce_workload(request.workload)
    if request.trace_backend is not None:
        # Generate (or reuse) the traces with the requested backend
        # before the experiment asks for them.
        from ..core.pipeline import get_traces

        get_traces(
            request.scene,
            resolved_scale,
            resolved_technique.traversal,
            resolved_technique.treelet_bytes,
            resolved_technique.deferred_order,
            resolved_technique.formation,
            backend=request.trace_backend,
            workload=resolved_workload,
        )
    with _span(
        "api.run",
        scene=request.scene,
        technique=resolved_technique.label(),
        scale=resolved_scale.name,
        workload=resolved_workload,
    ):
        experiment = _run_experiment(
            request.scene,
            resolved_technique,
            resolved_scale,
            gpu_config=request.gpu_config,
            use_cache=request.cache,
            observer=request.observer,
            replay_backend=request.replay_backend,
            workload=resolved_workload,
        )
    return RunResult(
        scene=request.scene,
        technique=resolved_technique,
        scale=resolved_scale,
        experiment=experiment,
        workload=resolved_workload,
    )


def sweep(
    technique: TechniqueLike,
    scenes: Optional[Iterable[str]] = None,
    scale: ScaleLike = DEFAULT,
    *,
    workload: str = "render",
    baseline: TechniqueLike = BASELINE,
    jobs: int = 1,
    progress=None,
) -> SweepResult:
    """Evaluate ``technique`` against ``baseline`` on every scene.

    ``scenes=None`` sweeps the workload's default scene set: the full
    16-scene library for "render", the matching query scenes for
    "knn"/"containment".  ``jobs > 1`` fans the evaluations across
    worker processes (:mod:`repro.exec`); serial sweeps batch all
    missing trace generation through the vectorized forest driver
    first.  Per-scene ``SimStats`` are bit-identical either way.
    ``progress`` is the executor's ``(done, total, job, source)``
    callback (parallel path only).

    A single :class:`SweepRequest` may be passed in place of
    ``technique`` (mirroring :func:`run` and :class:`RunRequest`).
    """
    if isinstance(technique, SweepRequest):
        request = technique
        technique = request.technique
        scenes = request.scenes
        scale = request.scale
        workload = request.workload
        baseline = request.baseline
        jobs = request.jobs
    resolved = _coerce_technique(technique)
    base = _coerce_technique(baseline)
    resolved_scale = _coerce_scale(scale)
    resolved_workload = _coerce_workload(workload)
    scene_list = (
        list(scenes) if scenes is not None
        else _default_scenes(resolved_workload)
    )
    with _span(
        "api.sweep",
        technique=resolved.label(),
        scale=resolved_scale.name,
        scenes=len(scene_list),
        jobs=jobs,
        workload=resolved_workload,
    ):
        if jobs > 1 and scene_list:
            from ..exec.executor import prewarm_replays

            # Traces ride one vectorized forest pass in this process;
            # only the replays fan across the worker pool.
            prewarm_replays(
                [base, resolved], scene_list, resolved_scale,
                jobs=jobs, progress=progress, workload=resolved_workload,
            )
        elif scene_list:
            prewarm_traces(
                [
                    (scene, candidate, resolved_workload)
                    for scene in scene_list
                    for candidate in (base, resolved)
                ],
                resolved_scale,
            )
        result = SweepResult(technique=resolved)
        for scene in scene_list:
            result.outcomes[scene] = SceneOutcome(
                scene=scene,
                baseline=_run_experiment(
                    scene, base, resolved_scale,
                    workload=resolved_workload,
                ),
                candidate=_run_experiment(
                    scene, resolved, resolved_scale,
                    workload=resolved_workload,
                ),
            )
    return result


def compare(
    techniques: Dict[str, TechniqueLike],
    scenes: Optional[Iterable[str]] = None,
    scale: ScaleLike = DEFAULT,
    *,
    workload: str = "render",
    baseline: TechniqueLike = BASELINE,
    jobs: int = 1,
    progress=None,
) -> Dict[str, SweepResult]:
    """Sweep several labeled techniques over the same scene set.

    The shared baseline is evaluated once.  ``jobs > 1`` fans every
    (technique, scene) pair across one worker pool.
    """
    resolved = {
        label: _coerce_technique(technique)
        for label, technique in techniques.items()
    }
    base = _coerce_technique(baseline)
    resolved_scale = _coerce_scale(scale)
    resolved_workload = _coerce_workload(workload)
    scene_list = (
        list(scenes) if scenes is not None
        else _default_scenes(resolved_workload)
    )
    if jobs > 1 and scene_list and resolved:
        from ..exec.executor import prewarm_replays

        prewarm_replays(
            [base, *resolved.values()], scene_list, resolved_scale,
            jobs=jobs, progress=progress, workload=resolved_workload,
        )
    elif scene_list and resolved:
        prewarm_traces(
            [
                (scene, candidate, resolved_workload)
                for scene in scene_list
                for candidate in (base, *resolved.values())
            ],
            resolved_scale,
        )
    return {
        label: sweep(
            technique, scene_list, resolved_scale, baseline=base,
            workload=resolved_workload,
        )
        for label, technique in resolved.items()
    }
