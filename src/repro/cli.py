"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``scenes`` — list the evaluation scenes and their triangle budgets;
  ``scenes list`` prints the full registry (rendering + query scenes)
  with kind and built triangle counts.
* ``queries`` — run a non-rendering query workload (kNN neighbor
  search or point containment) on a query scene: verify decoded
  answers against brute force and compare cycles vs the baseline
  (see ``docs/queries.md``).
* ``techniques`` — list technique presets and the ``--technique`` spec
  grammar.
* ``stats`` — BVH/treelet statistics for a scene (Table 2 row).
* ``run`` — evaluate one technique on one scene vs the baseline.
* ``sweep`` — evaluate one technique across scenes with gmean speedup.
* ``trace`` — trace one run and export Chrome trace-event JSON
  (open in Perfetto / chrome://tracing).
* ``render`` — render an ASCII/PGM frame of a scene.
* ``figures`` — recorded benchmark results as terminal charts.
* ``cache`` — inspect or clear the persistent artifact cache.
* ``serve`` — run the async HTTP/JSON simulation service
  (micro-batched scheduling, backpressure, graceful drain; see
  ``docs/serving.md``).
* ``loadgen`` — open-loop Poisson/uniform load generator against a
  running service or router; prints latency percentiles, throughput,
  and shed rate.
* ``router`` — scene-shard router fronting N service replicas
  (rendezvous hashing, health-check ejection, retry failover,
  aggregated metrics; see ``docs/serving.md``).
* ``scenarios`` — run a declarative ``repro.scenario/1`` load spec
  (``run``) or just parse it (``check``); ``run`` sweeps the spec's
  QPS steps and emits a ``repro.bench/1`` capacity report with an SLO
  verdict.
* ``obs`` — operate on ``repro.spans/1`` span files offline:
  ``merge`` several into one, ``export`` them as Perfetto/Chrome
  trace JSON, ``summarize`` per-phase wall/CPU totals (optionally as
  a ``repro.bench/1`` document).  ``run``/``sweep`` take ``--spans
  PATH`` to record such a file for the invocation.

``run`` and ``sweep`` take ``--json`` (machine-readable SimStats on
stdout) and ``--report PATH`` (structured ``run_report.json`` with
demand-latency and prefetch-timeliness histograms).  ``sweep`` takes
``--jobs N`` to fan evaluations across worker processes, and
``run``/``sweep``/``trace`` take ``--cache-dir`` to persist built
BVHs/rays/traces between invocations (``REPRO_CACHE_DIR`` works too;
see ``docs/execution.md``).  ``run``/``sweep``/``trace`` take
``--trace-backend {vectorized,scalar}`` to pick the trace-generation
kernels (bit-identical results; see ``docs/performance.md``).

All heavy options map one-to-one onto :class:`repro.core.Technique`;
``--technique SPEC`` sets them all at once from a spec string.  The
command implementations go through :mod:`repro.api`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import BASELINE, Technique, speedup
from .api import describe_techniques, parse_technique, technique_fields
from .api.facade import run as api_run
from .api.facade import sweep as api_sweep
from .bvh import compute_tree_stats
from .core import REPLAY_BACKENDS, TRACE_BACKENDS
from .core import banner, format_series, format_table, geomean
from .core.pipeline import SCALES, get_bvh, get_decomposition
from .prefetch import PrefetchHeuristic
from .render import RenderConfig, render
from .scenes import (
    ALL_SCENES,
    QUERY_SCENES,
    SCENE_TRIANGLE_BUDGET,
    build_scene,
    scene_registry,
)

#: Everything `run`/`sweep`/`queries` accept as a scene: the rendering
#: evaluation set plus the query-workload scenes.
_RUNNABLE_SCENES = tuple(ALL_SCENES) + tuple(QUERY_SCENES)

#: Ray workloads `run`/`sweep` accept (compile-side registry is
#: repro.queries.workloads.WORKLOADS; keep the CLI list literal so
#: `--help` works without importing the query stack).
_WORKLOADS = ("render", "knn", "containment")


def _add_technique_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--technique", metavar="SPEC", default=None,
        help="technique spec string, e.g. "
             "'treelet-prefetch,bytes=8192,order=lifo' "
             "(see `repro techniques`); supersedes the individual "
             "technique flags below",
    )
    parser.add_argument("--traversal", choices=["dfs", "treelet"],
                        default="treelet")
    parser.add_argument("--layout", choices=["dfs", "treelet"],
                        default="treelet")
    parser.add_argument("--layout-stride", type=int, default=0)
    parser.add_argument(
        "--prefetch",
        choices=["none", "treelet", "mta", "stride", "stream", "ghb"],
        default="treelet",
    )
    parser.add_argument("--heuristic",
                        choices=["always", "popularity", "partial"],
                        default="always")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="popularity threshold (with --heuristic"
                             " popularity)")
    parser.add_argument("--scheduler", choices=["baseline", "omr", "pmr"],
                        default="pmr")
    parser.add_argument("--treelet-bytes", type=int, default=512)
    parser.add_argument("--formation", choices=["bfs", "dfs", "sah"],
                        default="bfs")
    parser.add_argument("--voter", choices=["full", "pseudo"],
                        default="full")
    parser.add_argument("--voter-latency", type=int, default=0)
    parser.add_argument("--mapping-mode",
                        choices=["none", "loose", "strict"], default="none")


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persist built BVHs/rays/traces here and reload them on "
             "repeat invocations (default: $REPRO_CACHE_DIR if set)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir/$REPRO_CACHE_DIR for this invocation",
    )


def _activate_cache(args: argparse.Namespace):
    """Point the pipeline at the requested on-disk artifact cache."""
    from .exec import cache_dir_from_env, set_artifact_cache

    if getattr(args, "no_cache", False):
        return set_artifact_cache(None)
    path = getattr(args, "cache_dir", None) or cache_dir_from_env()
    return set_artifact_cache(path) if path else None


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-backend", choices=list(TRACE_BACKENDS), default=None,
        help="trace-generation kernels for this invocation "
             "(bit-identical results; default: $REPRO_TRACE_BACKEND "
             "or vectorized)",
    )
    parser.add_argument(
        "--replay-backend", choices=list(REPLAY_BACKENDS), default=None,
        help="replay engine for this invocation (bit-identical "
             "statistics; default: $REPRO_REPLAY_BACKEND or batched)",
    )


def _activate_backend(args: argparse.Namespace) -> None:
    backend = getattr(args, "trace_backend", None)
    if backend:
        from .core import set_trace_backend

        set_trace_backend(backend)
    replay = getattr(args, "replay_backend", None)
    if replay:
        from .core import set_replay_backend

        set_replay_backend(replay)


def _technique_from_args(args: argparse.Namespace) -> Technique:
    if getattr(args, "technique", None):
        try:
            return parse_technique(args.technique)
        except ValueError as exc:
            print(f"error: --technique: {exc}", file=sys.stderr)
            raise SystemExit(2)
    heuristic = PrefetchHeuristic(
        args.heuristic,
        threshold=args.threshold if args.heuristic == "popularity" else 0.0,
    )
    return Technique(
        traversal=args.traversal,
        layout=args.layout,
        layout_stride=args.layout_stride,
        prefetch=None if args.prefetch == "none" else args.prefetch,
        heuristic=heuristic,
        scheduler=args.scheduler,
        treelet_bytes=args.treelet_bytes,
        formation=args.formation,
        voter_mode=args.voter,
        voter_latency=args.voter_latency,
        mapping_mode=None if args.mapping_mode == "none" else args.mapping_mode,
    )


def _cmd_scenes(args: argparse.Namespace) -> int:
    if getattr(args, "scenes_action", "budgets") == "list":
        scale = SCALES[getattr(args, "scale", "default")]
        rows = []
        for name, kind, budget in scene_registry():
            scene = build_scene(name, scale.scene_scale)
            rows.append([name, kind, budget, scene.mesh.triangle_count])
        print(format_table(
            ["scene", "kind", "budget", f"triangles@{scale.name}"], rows
        ))
        return 0
    rows = [
        [name, SCENE_TRIANGLE_BUDGET[name]]
        for name in ALL_SCENES
    ]
    print(format_table(["scene", "triangle budget"], rows))
    return 0


def _cmd_techniques(_args: argparse.Namespace) -> int:
    rows = [list(entry) for entry in describe_techniques()]
    print(format_table(["preset", "label", "description"], rows))
    print()
    print("Spec grammar: '<preset>[,key=value,...]' or 'key=value,...'")
    print("Fields: " + ", ".join(technique_fields()))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    scale = SCALES[args.scale]
    bvh = get_bvh(args.scene, scale)
    stats = compute_tree_stats(bvh)
    decomposition = get_decomposition(args.scene, scale, args.treelet_bytes)
    print(banner(f"{args.scene} @ scale {scale.name}"))
    print(f"triangles:       {stats.triangle_count}")
    print(f"BVH nodes:       {stats.node_count} "
          f"({stats.leaf_count} leaves, depth {stats.depth})")
    print(f"tree size:       {stats.size_mb:.3f} MB")
    print(f"avg fanout:      {stats.avg_internal_fanout:.2f}")
    print(f"treelets:        {decomposition.treelet_count} "
          f"(<= {args.treelet_bytes} B, occupancy "
          f"{decomposition.occupancy():.2f})")
    return 0


def _observed_run(scene: str, technique: Technique, scale,
                  workload: str = "render"):
    """Run ``technique`` with an observer attached; returns (result, obs)."""
    from .obs import Observer

    observer = Observer()
    result = api_run(scene, technique, scale, observer=observer,
                     workload=workload).experiment
    return result, observer


def _write_report(path, scene, technique, scale, result, observer) -> None:
    from .obs import build_run_report, write_run_report

    report = build_run_report(
        scene=scene,
        technique=technique.label(),
        scale=scale.name,
        stats=result.stats,
        observer=observer,
    )
    write_run_report(path, report)


def _with_spans(args: argparse.Namespace, fn) -> int:
    """Run ``fn`` with span collection when ``--spans PATH`` was given;
    the recorded spans land in a ``repro.spans/1`` file at PATH."""
    path = getattr(args, "spans", None)
    if not path:
        return fn()
    from .obs import collect, write_spans

    with collect(process="cli") as collector:
        code = fn()
    out = write_spans(path, collector.snapshot())
    print(f"wrote {len(collector.snapshot())} span(s) to {out}",
          file=sys.stderr)
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    return _with_spans(args, lambda: _cmd_run_impl(args))


def _cmd_run_impl(args: argparse.Namespace) -> int:
    scale = SCALES[args.scale]
    technique = _technique_from_args(args)
    workload = getattr(args, "workload", "render")
    _activate_cache(args)
    _activate_backend(args)
    base = api_run(args.scene, BASELINE, scale, workload=workload).experiment
    if args.report:
        result, observer = _observed_run(args.scene, technique, scale,
                                         workload)
        _write_report(args.report, args.scene, technique, scale,
                      result, observer)
    else:
        result = api_run(args.scene, technique, scale,
                         workload=workload).experiment
    if args.json:
        from .obs import simstats_to_dict

        print(json.dumps({
            "scene": args.scene,
            "technique": technique.label(),
            "scale": scale.name,
            "workload": workload,
            "speedup": speedup(base, result),
            "power_ratio": result.power.avg_power / base.power.avg_power,
            "baseline": simstats_to_dict(base.stats),
            "stats": simstats_to_dict(result.stats),
        }, indent=2))
        return 0
    print(banner(f"{args.scene}: {technique.label()} vs baseline"))
    print(f"baseline cycles:   {base.cycles}")
    print(f"technique cycles:  {result.cycles}")
    print(f"speedup:           {speedup(base, result):.3f}x")
    print(f"BVH load latency:  {base.stats.avg_node_demand_latency:.0f} -> "
          f"{result.stats.avg_node_demand_latency:.0f} cycles")
    print(f"power ratio:       "
          f"{result.power.avg_power / base.power.avg_power:.3f}")
    if result.stats.prefetches_issued:
        print(format_series(
            "prefetch effectiveness:",
            result.stats.effectiveness.fractions(),
        ))
    if args.report:
        print(f"wrote report to {args.report}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _with_spans(args, lambda: _cmd_sweep_impl(args))


def _cmd_sweep_impl(args: argparse.Namespace) -> int:
    scale = SCALES[args.scale]
    technique = _technique_from_args(args)
    workload = getattr(args, "workload", "render")
    scenes = args.scenes or None
    if scenes is None and workload == "render":
        scenes = list(ALL_SCENES)
    _activate_cache(args)
    _activate_backend(args)
    # The facade owns the fast paths: --jobs > 1 fans evaluations
    # across workers, serial sweeps batch trace generation through the
    # vectorized forest driver.  (--report runs re-simulate with an
    # observer attached.)  scenes=None lets the facade pick the
    # workload-appropriate default set.
    outcome = api_sweep(technique, scenes, scale, jobs=args.jobs,
                        workload=workload)
    scenes = list(outcome.outcomes)
    rows = []
    gains = []
    reports = {}
    payload = {}
    for scene in scenes:
        base = outcome.outcomes[scene].baseline
        if args.report:
            from .obs import build_run_report

            result, observer = _observed_run(scene, technique, scale,
                                             workload)
            reports[scene] = build_run_report(
                scene=scene,
                technique=technique.label(),
                scale=scale.name,
                stats=result.stats,
                observer=observer,
                replay_jobs=args.jobs,
            )
        else:
            result = outcome.outcomes[scene].candidate
        gain = speedup(base, result)
        gains.append(gain)
        rows.append([scene, base.cycles, result.cycles, round(gain, 3)])
        if args.json:
            from .obs import simstats_to_dict

            payload[scene] = {
                "speedup": gain,
                "baseline": simstats_to_dict(base.stats),
                "stats": simstats_to_dict(result.stats),
            }
    if args.report:
        from pathlib import Path

        out = Path(args.report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(
            {"schema": "repro.sweep_report/1",
             "technique": technique.label(),
             "scale": scale.name,
             "gmean_speedup": geomean(gains),
             "scenes": reports},
            indent=2, sort_keys=True,
        ))
    if args.json:
        print(json.dumps({
            "technique": technique.label(),
            "scale": scale.name,
            "workload": workload,
            "gmean_speedup": geomean(gains),
            "scenes": payload,
        }, indent=2))
        return 0
    rows.append(["GMean", "", "", round(geomean(gains), 3)])
    print(banner(f"sweep: {technique.label()} @ scale {scale.name}"))
    print(format_table(["scene", "base cyc", "ours cyc", "speedup"], rows))
    if args.report:
        print(f"wrote report to {args.report}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import Observer, write_chrome_trace

    scale = SCALES[args.scale]
    technique = _technique_from_args(args)
    _activate_cache(args)
    _activate_backend(args)
    observer = Observer(max_events=args.max_events)
    result = api_run(
        args.scene, technique, scale, observer=observer
    ).experiment
    path = write_chrome_trace(args.out, observer.bus, observer.metrics)
    summary = observer.trace_summary()
    if args.report:
        _write_report(args.report, args.scene, technique, scale,
                      result, observer)
    print(banner(f"{args.scene}: traced {technique.label()}"))
    print(f"cycles:        {result.stats.cycles}")
    print(f"events:        {summary['events']}"
          + (f" (+{summary['dropped']} dropped)"
             if summary["dropped"] else ""))
    print(f"tracks:        {len(summary['tracks'])}")
    print(f"event kinds:   {len(summary['kinds'])}")
    print(f"wrote {path} — open in https://ui.perfetto.dev "
          "or chrome://tracing")
    if args.report:
        print(f"wrote report to {args.report}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .analysis import default_results_path, load_results, render_all

    path = args.results or default_results_path()
    try:
        results = load_results(path)
    except FileNotFoundError:
        print(
            f"no results at {path}; run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    blocks = render_all(results)
    if not blocks:
        print("results file contains no renderable figures", file=sys.stderr)
        return 1
    print("\n\n".join(blocks))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .exec import ArtifactCache, default_cache_dir

    root = args.cache_dir or default_cache_dir()
    if root is None:
        print("caching is disabled (REPRO_CACHE=off)", file=sys.stderr)
        return 1
    cache = ArtifactCache(root)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifact(s) from {cache.root}")
        return 0
    info = cache.describe()
    print(banner(f"artifact cache @ {info['root']}"))
    print(f"schema version:  v{info['schema_version']}")
    print(f"entries:         {info['entries']}")
    print(f"size:            {info['size_bytes'] / 1024.0:.1f} KiB")
    for kind, count in sorted(info["per_kind"].items()):
        print(f"  {kind + ':':<16}{count}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ServeConfig, SimulationService

    cache_dir = None
    if not getattr(args, "no_cache", False):
        from .exec import cache_dir_from_env

        cache_dir = args.cache_dir or cache_dir_from_env()
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        batch_max=args.batch_max,
        batch_window_s=args.batch_window_ms / 1000.0,
        workers=args.workers,
        default_deadline_s=args.deadline_s,
        cache_entries=args.lru_entries,
        cache_dir=cache_dir,
        drain_timeout_s=args.drain_timeout_s,
    )
    _activate_backend(args)

    async def main_async() -> None:
        service = SimulationService(config)
        await service.start()
        # The announce line is machine-read (tests, scripts): keep the
        # "listening on" phrasing and flush before blocking.
        print(f"repro-serve listening on http://{config.host}:{service.port}",
              flush=True)
        print("POST /v1/run | POST /v1/sweep | GET /v1/jobs/<id> | "
              "GET /healthz | GET /metrics  (SIGTERM/Ctrl-C drains)",
              flush=True)
        await service.serve_forever()
        print("repro-serve drained cleanly", flush=True)

    asyncio.run(main_async())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .serve import LoadGenConfig, RequestTemplate, run_loadgen

    scenes = args.scenes or ["WKND"]
    mix = tuple(
        RequestTemplate(
            scene=scene, technique=args.technique, scale=args.scale,
            workload=getattr(args, "workload", "render"),
        )
        for scene in scenes
    )
    config = LoadGenConfig(
        host=args.host,
        port=args.port,
        qps=args.qps,
        requests=args.requests,
        mix=mix,
        seed=args.seed,
        arrival=args.arrival,
        deadline_s=args.deadline_s,
        timeout_s=args.timeout_s,
    )
    report = run_loadgen(config)
    summary = report.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if summary["errors"] == 0 else 1
    print(banner(
        f"loadgen: {args.requests} req @ {args.qps:g} QPS "
        f"-> {args.host}:{args.port}"
    ))
    print(f"ok / shed / errors:  {summary['ok']} / {summary['shed']} / "
          f"{summary['errors']}  (cached {summary['cached']})")
    print(f"throughput:          {summary['throughput_rps']:.2f} req/s "
          f"over {summary['duration_s']:.2f}s")
    print(f"latency p50/p95/p99: {summary['latency_p50_s'] * 1000:.1f} / "
          f"{summary['latency_p95_s'] * 1000:.1f} / "
          f"{summary['latency_p99_s'] * 1000:.1f} ms")
    print(f"queue depth:         max {summary['queue_depth_max']}, "
          f"mean {summary['queue_depth_mean']:.1f}")
    print(f"shed rate:           {summary['shed_rate']:.1%}")
    return 0 if summary["errors"] == 0 else 1


def _cmd_router(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import RouterConfig, SceneShardRouter

    config = RouterConfig(
        host=args.host,
        port=args.port,
        replicas=tuple(args.replica),
        health_interval_s=args.health_interval_s,
        eject_after=args.eject_after,
        readmit_after=args.readmit_after,
        retries=args.retries,
        max_inflight_per_replica=args.max_inflight,
    )

    async def main_async() -> None:
        router = SceneShardRouter(config)
        await router.start()
        # Machine-read announce line; same phrasing as `repro serve`.
        print(f"repro-router listening on http://{config.host}:{router.port}",
              flush=True)
        print(f"sharding {len(config.replicas)} replicas: "
              + " ".join(config.replicas), flush=True)
        await router.serve_forever()
        print("repro-router drained cleanly", flush=True)

    asyncio.run(main_async())
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .serve.scenarios import Scenario, ScenarioError, run_scenario

    try:
        scenario = Scenario.load(args.spec)
    except ScenarioError as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return 2

    if args.scenarios_command == "check":
        print(json.dumps(scenario.describe(), indent=2, sort_keys=True))
        return 0

    def progress(qps: float, summary: dict) -> None:
        verdict = "ok" if summary["slo_ok"] else "MISS"
        print(f"  qps {qps:>7.2f}: {summary['ok']}/{summary['requests']} ok, "
              f"shed {summary['shed']}, p99 "
              f"{summary['latency_p99_s'] * 1000:.1f} ms  [{verdict}]",
              flush=True)

    print(banner(f"scenario {scenario.name!r} -> {args.host}:{args.port}"))
    report = run_scenario(scenario, args.host, args.port, progress=progress)
    derived = report["derived"]
    print(f"capacity: {derived['capacity_qps']:g} QPS "
          f"({derived['levels_passed']}/{derived['levels_total']} levels "
          f"met SLO)")
    print(f"verdict:  {'PASS' if derived['slo_pass'] else 'FAIL'}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report:   {args.out}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if derived["slo_pass"] else 1


def _load_span_inputs(paths):
    from .obs import load_spans, merge_spans

    loaded = []
    for path in paths:
        try:
            loaded.append(load_spans(path))
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(1)
    return merge_spans(*loaded)


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import (
        spans_to_bench,
        spans_to_chrome_trace,
        summarize_spans,
        write_spans,
    )

    spans = _load_span_inputs(args.inputs)
    if args.obs_command == "merge":
        out = write_spans(args.out, spans)
        traces = len({s.trace_id for s in spans})
        print(f"merged {len(spans)} span(s) across {traces} trace(s) "
              f"-> {out}")
        return 0
    if args.obs_command == "export":
        from pathlib import Path

        doc = spans_to_chrome_trace(spans)
        out = Path(args.out)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"wrote {out} — open in https://ui.perfetto.dev "
              "or chrome://tracing")
        return 0
    # summarize
    summary = summarize_spans(spans)
    if args.bench:
        from pathlib import Path

        bench = spans_to_bench(spans, scale=args.scale)
        Path(args.bench).write_text(
            json.dumps(bench, indent=2, sort_keys=True)
        )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(banner(f"span summary: {len(spans)} span(s)"))
        rows = [
            [name, entry["count"],
             f"{entry['wall_s'] * 1000:.1f}",
             f"{entry['cpu_s'] * 1000:.1f}"]
            for name, entry in summary.items()
        ]
        print(format_table(["span", "count", "wall ms", "cpu ms"], rows))
    if args.bench:
        print(f"wrote repro.bench/1 document to {args.bench}",
              file=sys.stderr)
    return 0


def _cmd_queries(args: argparse.Namespace) -> int:
    from .queries import verify_workload
    from .scenes import SCENE_KINDS

    scale = SCALES[args.scale]
    technique = _technique_from_args(args)
    workload = args.workload
    if workload is None:
        # Infer from the scene kind: point clouds answer kNN, AMR
        # grids answer containment.
        kind = SCENE_KINDS.get(args.scene)
        workload = "knn" if kind == "points" else "containment"
    _activate_cache(args)
    _activate_backend(args)
    verification = verify_workload(
        args.scene, scale, workload, technique=technique
    )
    base = api_run(args.scene, BASELINE, scale, workload=workload).experiment
    result = api_run(args.scene, technique, scale,
                     workload=workload).experiment
    if args.json:
        print(json.dumps({
            "scene": args.scene,
            "workload": workload,
            "scale": scale.name,
            "technique": technique.label(),
            "queries": verification.queries,
            "rays": verification.rays,
            "exact": verification.exact,
            "mismatches": verification.mismatches,
            "baseline_cycles": base.cycles,
            "cycles": result.cycles,
            "speedup": speedup(base, result),
        }, indent=2))
        return 0 if verification.exact else 1
    print(banner(
        f"{args.scene}: {workload} queries, "
        f"{technique.label()} vs baseline"
    ))
    print(f"queries:           {verification.queries}")
    print(f"rays:              {verification.rays}")
    verdict = "EXACT match" if verification.exact else (
        f"{verification.mismatches} MISMATCH(ES)"
    )
    print(f"vs brute force:    {verdict}")
    for qi, got, want in verification.examples:
        print(f"  query {qi}: decoded {got!r}, expected {want!r}")
    print(f"baseline cycles:   {base.cycles}")
    print(f"technique cycles:  {result.cycles}")
    print(f"speedup:           {speedup(base, result):.3f}x")
    return 0 if verification.exact else 1


def _cmd_render(args: argparse.Namespace) -> int:
    scale = SCALES[args.scale]
    scene = build_scene(args.scene, scale.scene_scale)
    bvh = get_bvh(args.scene, scale)
    image = render(
        bvh, scene.camera, RenderConfig(width=args.size, height=args.size)
    )
    print(image.to_ascii())
    if args.output:
        out = image.write_pgm(args.output)
        print(f"wrote {out}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Treelet Prefetching For Ray Tracing — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenes = sub.add_parser(
        "scenes",
        help="list evaluation scenes (`list` adds query scenes, kinds, "
             "and built triangle counts)",
    )
    scenes.add_argument(
        "scenes_action", nargs="?", choices=["budgets", "list"],
        default="budgets",
        help="'budgets' (default) prints the rendering set's triangle "
             "budgets; 'list' prints the full registry — rendering + "
             "query scenes — with kind and built triangle count",
    )
    scenes.add_argument("--scale", choices=list(SCALES), default="default",
                        help="scale at which `list` builds each scene")

    sub.add_parser(
        "techniques",
        help="list technique presets and the --technique spec grammar",
    )

    stats = sub.add_parser("stats", help="BVH/treelet stats for a scene")
    stats.add_argument("scene", choices=list(ALL_SCENES))
    stats.add_argument("--scale", choices=list(SCALES), default="default")
    stats.add_argument("--treelet-bytes", type=int, default=512)

    run = sub.add_parser("run", help="one technique vs baseline on a scene")
    run.add_argument("scene", choices=list(_RUNNABLE_SCENES))
    run.add_argument("--scale", choices=list(SCALES), default="default")
    run.add_argument("--workload", choices=list(_WORKLOADS),
                     default="render",
                     help="ray workload: render (camera rays), knn, or "
                          "containment (query scenes; see `repro queries`)")
    run.add_argument("--json", action="store_true",
                     help="print machine-readable SimStats JSON")
    run.add_argument("--report",
                     help="write a structured run_report.json here")
    run.add_argument("--spans", metavar="PATH",
                     help="record phase spans (repro.spans/1) here")
    _add_technique_args(run)
    _add_cache_args(run)
    _add_backend_args(run)

    sweep = sub.add_parser("sweep", help="one technique across scenes")
    sweep.add_argument("--scenes", nargs="*", choices=list(_RUNNABLE_SCENES))
    sweep.add_argument("--scale", choices=list(SCALES), default="default")
    sweep.add_argument("--workload", choices=list(_WORKLOADS),
                       default="render",
                       help="ray workload; with no --scenes, query "
                            "workloads default to their query scenes")
    sweep.add_argument("--json", action="store_true",
                       help="print machine-readable SimStats JSON")
    sweep.add_argument("--report",
                       help="write per-scene run reports to this file")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="evaluate scenes across N worker processes "
                            "(results identical to --jobs 1)")
    sweep.add_argument("--spans", metavar="PATH",
                       help="record phase spans (repro.spans/1) here")
    _add_technique_args(sweep)
    _add_cache_args(sweep)
    _add_backend_args(sweep)

    trace = sub.add_parser(
        "trace", help="trace one run; export Perfetto/Chrome JSON"
    )
    trace.add_argument("scene", choices=list(ALL_SCENES))
    trace.add_argument("--scale", choices=list(SCALES), default="default")
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace-event output path")
    trace.add_argument("--report",
                       help="also write a structured run_report.json here")
    trace.add_argument("--max-events", type=_positive_int, default=1_000_000,
                       help="retained-event cap (excess is dropped)")
    _add_technique_args(trace)
    _add_cache_args(trace)
    _add_backend_args(trace)

    cache = sub.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="cache root (default: $REPRO_CACHE_DIR or results/cache)",
    )

    serve = sub.add_parser(
        "serve", help="run the async HTTP/JSON simulation service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8077,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--queue-limit", type=_positive_int, default=64,
                       help="admission queue bound; beyond it requests "
                            "are shed with 429 + Retry-After")
    serve.add_argument("--batch-max", type=_positive_int, default=8,
                       help="max jobs coalesced into one micro-batch")
    serve.add_argument("--batch-window-ms", type=float, default=5.0,
                       help="straggler wait after the first arrival "
                            "before a batch dispatches")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       help="fan simulation replays across N worker "
                            "processes (repro.exec pool)")
    serve.add_argument("--deadline-s", type=float, default=None,
                       help="default per-request deadline (requests may "
                            "override with deadline_s)")
    serve.add_argument("--lru-entries", type=_positive_int, default=256,
                       help="in-memory LRU result-cache capacity")
    serve.add_argument("--drain-timeout-s", type=float, default=60.0,
                       help="max wait for in-flight jobs on SIGTERM")
    _add_cache_args(serve)
    _add_backend_args(serve)

    loadgen = sub.add_parser(
        "loadgen", help="open-loop Poisson load generator for `repro serve`"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8077)
    loadgen.add_argument("--qps", type=float, default=8.0,
                         help="offered arrival rate (Poisson)")
    loadgen.add_argument("--requests", type=_positive_int, default=50)
    loadgen.add_argument("--scenes", nargs="*",
                         choices=list(_RUNNABLE_SCENES),
                         help="request mix, uniform over these scenes "
                              "(default: WKND)")
    loadgen.add_argument("--workload", choices=list(_WORKLOADS),
                         default="render",
                         help="ray workload sent with every request")
    loadgen.add_argument("--technique", metavar="SPEC",
                         default="treelet-prefetch",
                         help="technique spec sent with every request")
    loadgen.add_argument("--scale", choices=list(SCALES), default="smoke")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="arrival-process RNG seed")
    loadgen.add_argument("--arrival", choices=["poisson", "uniform"],
                         default="poisson",
                         help="arrival process (poisson or 1/qps metronome)")
    loadgen.add_argument("--deadline-s", type=float, default=None,
                         help="per-request deadline forwarded to the server")
    loadgen.add_argument("--timeout-s", type=float, default=120.0,
                         help="client-side socket timeout")
    loadgen.add_argument("--json", action="store_true",
                         help="print the machine-readable summary")

    router = sub.add_parser(
        "router", help="scene-shard router fronting N `repro serve` replicas"
    )
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=8078,
                        help="TCP port (0 picks an ephemeral port)")
    router.add_argument("--replica", action="append", required=True,
                        metavar="HOST:PORT",
                        help="replica address; repeat once per replica")
    router.add_argument("--health-interval-s", type=float, default=0.25,
                        help="seconds between /healthz probes")
    router.add_argument("--eject-after", type=_positive_int, default=2,
                        help="consecutive failures before a replica is "
                             "ejected from the ring")
    router.add_argument("--readmit-after", type=_positive_int, default=2,
                        help="consecutive healthy probes before readmission")
    router.add_argument("--retries", type=_positive_int, default=3,
                        help="max replicas tried per request")
    router.add_argument("--max-inflight", type=_positive_int, default=32,
                        help="per-replica in-flight budget; beyond it the "
                             "router sheds with 429")

    scenarios = sub.add_parser(
        "scenarios",
        help="run declarative load scenarios and emit capacity reports",
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command",
                                             required=True)
    sc_run = scenarios_sub.add_parser(
        "run", help="execute a scenario spec against a service or router"
    )
    sc_run.add_argument("spec", metavar="SPEC_JSON",
                        help="repro.scenario/1 spec (.json, or .yaml with "
                             "PyYAML installed)")
    sc_run.add_argument("--host", default="127.0.0.1")
    sc_run.add_argument("--port", type=int, default=8077,
                        help="target service or router port")
    sc_run.add_argument("--out", metavar="PATH",
                        help="write the repro.bench/1 capacity report here")
    sc_run.add_argument("--json", action="store_true",
                        help="print the full capacity report as JSON")
    sc_check = scenarios_sub.add_parser(
        "check", help="parse and echo a scenario spec without running it"
    )
    sc_check.add_argument("spec", metavar="SPEC_JSON")

    obs = sub.add_parser(
        "obs", help="merge/export/summarize repro.spans/1 span files"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_merge = obs_sub.add_parser(
        "merge", help="merge span files into one deterministic timeline"
    )
    obs_merge.add_argument("inputs", nargs="+", metavar="SPANS_JSON")
    obs_merge.add_argument("--out", default="spans.json",
                           help="merged repro.spans/1 output path")
    obs_export = obs_sub.add_parser(
        "export", help="export span files as Perfetto/Chrome trace JSON"
    )
    obs_export.add_argument("inputs", nargs="+", metavar="SPANS_JSON")
    obs_export.add_argument("--out", default="spans_trace.json",
                            help="Chrome trace-event output path")
    obs_summarize = obs_sub.add_parser(
        "summarize", help="per-span-name wall/CPU totals"
    )
    obs_summarize.add_argument("inputs", nargs="+", metavar="SPANS_JSON")
    obs_summarize.add_argument("--json", action="store_true",
                               help="print the summary as JSON")
    obs_summarize.add_argument("--bench", metavar="PATH",
                               help="also write a repro.bench/1 document")
    obs_summarize.add_argument("--scale", default="default",
                               help="scale label stamped into --bench")

    queries = sub.add_parser(
        "queries",
        help="run a non-rendering query workload (kNN / containment): "
             "verify against brute force and compare cycles vs baseline",
    )
    queries.add_argument("scene", choices=list(QUERY_SCENES))
    queries.add_argument("--workload", choices=["knn", "containment"],
                         default=None,
                         help="query workload (default: inferred from the "
                              "scene kind)")
    queries.add_argument("--scale", choices=list(SCALES), default="smoke")
    queries.add_argument("--json", action="store_true",
                         help="print a machine-readable summary")
    _add_technique_args(queries)
    _add_cache_args(queries)
    _add_backend_args(queries)

    rend = sub.add_parser("render", help="render a scene frame")
    rend.add_argument("scene", choices=list(ALL_SCENES))
    rend.add_argument("--scale", choices=list(SCALES), default="default")
    rend.add_argument("--size", type=int, default=48)
    rend.add_argument("--output", help="write a PGM file here")

    figures = sub.add_parser(
        "figures", help="render recorded benchmark results as ASCII charts"
    )
    figures.add_argument("--results", help="path to experiments.json")

    return parser


_COMMANDS = {
    "scenes": _cmd_scenes,
    "techniques": _cmd_techniques,
    "stats": _cmd_stats,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "queries": _cmd_queries,
    "render": _cmd_render,
    "figures": _cmd_figures,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "router": _cmd_router,
    "scenarios": _cmd_scenarios,
    "obs": _cmd_obs,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        return 0
    except KeyboardInterrupt:
        # Interactive interrupt of a long run/sweep/serve: one line, the
        # conventional 128+SIGINT exit status, no traceback.
        print(f"interrupted: {args.command} aborted by user", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
