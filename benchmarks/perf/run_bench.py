#!/usr/bin/env python3
"""Run the tracked perf microbenchmarks and write ``BENCH_<phase>.json``.

Usage::

    python benchmarks/perf/run_bench.py [--phase trace|build|replay|e2e|all]
                                        [--scale smoke|default|full]
                                        [--repeats N] [--out-dir DIR]

Each phase writes one ``repro.bench/1`` document (see ``perfbench.py``)
to ``<out-dir>/BENCH_<phase>.json`` — the repo root by default, where
the default-scale results are committed and tracked.  The committed
smoke baselines under ``benchmarks/perf/baselines/smoke/`` are
regenerated with ``--scale smoke --out-dir benchmarks/perf/baselines/smoke``.

The artifact cache is disabled for the duration so timings measure real
work, never disk hits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import perfbench  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--phase", choices=[*perfbench.PHASES, "all"], default="all"
    )
    parser.add_argument(
        "--scale", choices=["smoke", "default", "full"], default="default"
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="best-of-N repeat count (default: per-phase)",
    )
    parser.add_argument(
        "--scenes", default=None, metavar="SET",
        help='scene coverage: "all" (the full 16-scene library), '
             '"default" (the per-scale bench set), or a comma-separated '
             "list of scene names (default: per-scale set)",
    )
    parser.add_argument(
        "--out-dir", default=str(ROOT), metavar="DIR",
        help="where BENCH_<phase>.json files land (default: repo root)",
    )
    args = parser.parse_args()

    from repro.exec import set_artifact_cache

    set_artifact_cache(None)

    scale = perfbench.resolve_scale(args.scale)
    scenes = perfbench.resolve_scenes(args.scenes, scale)
    phases = list(perfbench.PHASES) if args.phase == "all" else [args.phase]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for phase in phases:
        document = perfbench.run_phase(
            phase, scale, scenes=scenes, repeats=args.repeats
        )
        path = out_dir / f"BENCH_{phase}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        parts = [
            f"{name}={spec['seconds']:.4f}s"
            for name, spec in sorted(document["metrics"].items())
        ]
        derived = document["derived"]
        if "speedup" in derived:
            parts.append(f"speedup={derived['speedup']:.2f}x")
        if "replay_calibrated" in derived:
            parts.append(f"calibrated={derived['replay_calibrated']:.3f}")
        print(f"{phase:>7} @ {scale.name}: {'  '.join(parts)}  -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
