#!/usr/bin/env python3
"""Gate BENCH_<phase>.json results against committed baselines.

Usage::

    python benchmarks/perf/check_regression.py \
        [--baseline-dir benchmarks/perf/baselines/smoke] \
        [--current-dir .] [--threshold 2.0] [--min-trace-speedup X] \
        [--max-calibrated-slowdown F] [--max-parallel-slowdown F]

For every ``BENCH_<phase>.json`` present in the baseline directory, the
matching current file must exist and every ``metrics.<name>.seconds``
must be within ``threshold`` times the baseline (default 2x — wide
enough to absorb machine-to-machine variance, tight enough to catch a
vectorized kernel silently falling back to scalar).  With
``--min-trace-speedup`` the trace phase's ``derived.speedup`` (scalar
time / vectorized time) must also clear the floor.

With ``--max-calibrated-slowdown`` the replay phase's
``derived.replay_calibrated`` (``replay_warm`` divided by the seconds
of a fixed calibration kernel timed in the same process) must not
exceed the baseline's by more than ``factor``.  The kernel calls nothing
in ``repro``, so the ratio cancels most of the host's speed and can be
held far tighter (about 1.3x) than raw seconds across machines.

Wall-clock fan-out metrics (``replay_serial_wall``,
``replay_parallel``) are excluded from the baseline ratio check: their
absolute values depend on the host's core count, so a baseline recorded
on one machine says nothing about another.  They are instead gated
against *each other* on the current machine via
``--max-parallel-slowdown``: the fanned replay must never be worse than
``factor`` times the serial wall on the same host (loose enough for a
single-core runner, where the fan-out degrades to the in-process serial
path, tight enough to catch the pool pathologically thrashing).

Exit status: 0 clean, 1 regression, 2 missing/invalid files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Metrics timed on the wall clock across worker processes; absolute
#: cross-machine comparison is meaningless (see module docstring).
#: ``queries_e2e_wall`` (from ``bench_queries.py``) is wall-clock for
#: the same reason: it spans the full query phase including any pool
#: fan-out, so it is reported but never ratio-gated across machines.
WALL_CLOCK_METRICS = {"replay_serial_wall", "replay_parallel",
                      "queries_e2e_wall"}


def load(path: Path):
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None
    if document.get("schema") != "repro.bench/1":
        print(f"{path}: unexpected schema {document.get('schema')!r}",
              file=sys.stderr)
        return None
    return document


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        default=str(ROOT / "benchmarks" / "perf" / "baselines" / "smoke"),
    )
    parser.add_argument("--current-dir", default=str(ROOT))
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="fail when current seconds exceed baseline * threshold",
    )
    parser.add_argument(
        "--min-trace-speedup", type=float, default=None,
        help="fail when the trace phase's vectorized-over-scalar "
             "speedup drops below this floor",
    )
    parser.add_argument(
        "--max-calibrated-slowdown", type=float, default=None,
        help="fail when the replay phase's replay_warm / calibration "
             "ratio exceeds the baseline's by more than this factor",
    )
    parser.add_argument(
        "--max-parallel-slowdown", type=float, default=None,
        help="fail when the current replay_parallel wall exceeds "
             "replay_serial_wall by more than this factor (same-machine "
             "check; wall metrics are never compared across machines)",
    )
    args = parser.parse_args()

    baseline_dir = Path(args.baseline_dir)
    current_dir = Path(args.current_dir)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines in {baseline_dir}", file=sys.stderr)
        return 2

    failures = 0
    for baseline_path in baselines:
        baseline = load(baseline_path)
        current_path = current_dir / baseline_path.name
        current = load(current_path) if current_path.exists() else None
        if baseline is None or current is None:
            if current is None and not current_path.exists():
                print(f"missing current result {current_path}",
                      file=sys.stderr)
            return 2
        for name, spec in sorted(baseline["metrics"].items()):
            if name in WALL_CLOCK_METRICS:
                print(f"{baseline_path.name:>22} {name:<20} "
                      f"skipped (wall-clock, machine-local)")
                continue
            base_seconds = spec["seconds"]
            cur = current["metrics"].get(name)
            if cur is None:
                print(f"{current_path.name}: metric {name!r} disappeared",
                      file=sys.stderr)
                failures += 1
                continue
            ratio = cur["seconds"] / base_seconds if base_seconds else 1.0
            verdict = "ok"
            if ratio > args.threshold:
                verdict = "REGRESSION"
                failures += 1
            print(f"{baseline_path.name:>22} {name:<20} "
                  f"{base_seconds:.4f}s -> {cur['seconds']:.4f}s "
                  f"({ratio:.2f}x)  {verdict}")
        floor = (args.min_trace_speedup
                 if baseline["phase"] == "trace" else None)
        if floor is not None:
            speedup = current["derived"].get("speedup", 0.0)
            verdict = "ok"
            if speedup < floor:
                verdict = "REGRESSION"
                failures += 1
            print(f"{baseline_path.name:>22} {'derived.speedup':<20} "
                  f"{speedup:.2f}x (floor {floor:.2f}x)  "
                  f"{verdict}")
        if (args.max_calibrated_slowdown is not None
                and baseline["phase"] == "replay"):
            base_ratio = baseline["derived"].get("replay_calibrated")
            cur_ratio = current["derived"].get("replay_calibrated")
            if base_ratio is None or cur_ratio is None:
                print(f"{baseline_path.name}: replay_calibrated missing, "
                      f"cannot check --max-calibrated-slowdown",
                      file=sys.stderr)
                failures += 1
            else:
                ratio = cur_ratio / base_ratio
                verdict = "ok"
                if ratio > args.max_calibrated_slowdown:
                    verdict = "REGRESSION"
                    failures += 1
                print(f"{baseline_path.name:>22} {'replay_calibrated':<20} "
                      f"{base_ratio:.3f} -> {cur_ratio:.3f} "
                      f"({ratio:.2f}x, max "
                      f"{args.max_calibrated_slowdown:.2f}x)  {verdict}")
        if (args.max_parallel_slowdown is not None
                and baseline["phase"] == "replay"):
            serial = current["metrics"].get("replay_serial_wall")
            fanned = current["metrics"].get("replay_parallel")
            if serial is None or fanned is None:
                print(f"{current_path.name}: wall metrics missing, cannot "
                      f"check --max-parallel-slowdown", file=sys.stderr)
                failures += 1
            else:
                ratio = (fanned["seconds"] / serial["seconds"]
                         if serial["seconds"] else 1.0)
                verdict = "ok"
                if ratio > args.max_parallel_slowdown:
                    verdict = "REGRESSION"
                    failures += 1
                print(f"{baseline_path.name:>22} {'parallel/serial':<20} "
                      f"{ratio:.2f}x (max "
                      f"{args.max_parallel_slowdown:.2f}x)  {verdict}")

    if failures:
        print(f"{failures} perf regression(s)", file=sys.stderr)
        return 1
    print("perf within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
