"""The repository benchmark: one command per workload, every metric by
name with its unit, outputs checked against recorded results.

Run from the repository root::

    python3 perfbench/run.py --workload render-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
Their host times are scaled to a reference host speed, sampled with a
fixed kernel (``workloads.probe_s``) while the workload runs.
``--trace 1`` also makes one traced run with every layer's entry points
wrapped (``layers.py``) and prints the per-layer metrics instead.  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the result::

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

Every operation's output is checked against results recorded from
earlier runs of this model (``golden.py``), not against hardware.  A
mismatch counts as a failed operation, sets ``correct`` to false and
makes the exit code 1.  A per-run report with the environment block,
every latency sample and the traced spans is written under
``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("render-cold", "queries-cold", "serve-mix")
#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 9
#: A traced cold pass fails when the time no layer accounts for exceeds
#: this share of its wall time.
MAX_RESIDUAL_SHARE = 0.05


def _imports() -> None:
    """Everything a workload imports before its first timed operation,
    including modules the pipeline would otherwise import lazily inside
    the first timed call."""
    import numpy  # noqa: F401

    import repro.api  # noqa: F401
    import repro.exec  # noqa: F401
    import repro.queries  # noqa: F401
    import repro.serve  # noqa: F401


def calibration_s() -> float:
    """Seconds for the fixed kernel ``workloads.probe_s``, median of
    seven runs.  Recorded in the environment block so runs from
    different hosts can be read side by side."""
    from workloads import probe_s

    return statistics.median(probe_s() for _ in range(7))


def environment(workload: str) -> dict:
    import numpy

    from serve_mix import nproc, workers
    from workloads import REFERENCE_PROBE_S

    used = workers() if workload == "serve-mix" else 1
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "workers_used": used,
        # A fan-out ratio needs at least two workers to be measured.
        "fanout_measured": used >= 2,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "calibration_s": calibration_s(),
        "reference_probe_s": REFERENCE_PROBE_S,
        "model_check": ("simulated results compared with results recorded "
                        "from earlier runs of this model, not with "
                        "hardware"),
    }


def setup_probe(workload: str, scratch: Path) -> None:
    _imports()
    if workload == "serve-mix":
        from serve_mix import setup_probe as serve_setup

        serve_setup(scratch)


def measure_setup(workload: str) -> dict:
    """Median wall time from starting a fresh interpreter to the point
    where the workload would issue its first timed operation, raw and
    scaled to the reference host speed.

    Each start is scaled by the mean of ``REFERENCE_PROBE_S / probe``
    over the probes timed just before and just after it, as the cold
    workloads' operations are.  On a shared host, raw set-up fell from
    0.53 s to 0.30 s between two stretches ten minutes apart, as the
    host sped up.
    """
    from workloads import BOUNDARY_PROBES, REFERENCE_PROBE_S, probe_s

    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = [probe_s() for _ in range(BOUNDARY_PROBES)]
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload],
            stdout=subprocess.PIPE, timeout=120, check=True, text=True,
        )
        elapsed = time.perf_counter() - start
        if done.stdout.strip() != "ready":
            raise RuntimeError(f"set-up probe printed {done.stdout!r}")
        after = [probe_s() for _ in range(BOUNDARY_PROBES)]
        times.append(elapsed)
        scaled.append(elapsed * statistics.fmean(
            REFERENCE_PROBE_S / probe for probe in before + after))
    return {"setup_s": statistics.median(scaled),
            "raw_setup_s": statistics.median(times), "starts_s": times}


def run_workload(args, refs, scratch: Path):
    from workloads import query_keys, render_keys, run_cold

    trace = bool(args.trace)
    if args.workload == "serve-mix":
        from serve_mix import run_serve_mix

        return run_serve_mix(args.seed, args.seconds, refs, scratch, trace)
    keys = render_keys() if args.workload == "render-cold" else query_keys()
    outcome = run_cold(keys, args.seconds, refs, trace)
    outcome.e2e["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if trace:
        share = outcome.layers["run.residual_s"] / (
            outcome.report["traced_pass"]["wall_s"])
        if abs(share) > MAX_RESIDUAL_SHARE:
            outcome.errors.append(
                f"layer residual is {share:.1%} of traced wall "
                f"(bound {MAX_RESIDUAL_SHARE:.0%})")
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, scratch)
        print("ready")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _imports()
    from golden import References

    refs = References.load()
    env = environment(args.workload)
    outcome = run_workload(args, refs, scratch)
    outcome.e2e["success_rate"] = 1.0 - outcome.failed / outcome.attempted
    if not args.trace:
        setup = measure_setup(args.workload)
        outcome.e2e["setup_s"] = setup.pop("setup_s")
        outcome.report["setup"] = setup

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.layers if args.trace else outcome.e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"no value measured for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = outcome.failed == 0 and not outcome.errors

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": correct,
        "errors": outcome.errors, "end_to_end": outcome.e2e,
        "per_layer": outcome.layers, **outcome.report,
    }
    report_path = scratch / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    for error in outcome.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
