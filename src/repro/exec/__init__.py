"""repro.exec — parallel sweep execution and persistent artifact cache.

Two pieces:

* :mod:`repro.exec.executor` — a :class:`ProcessPoolExecutor`-based
  runner that fans (scene, technique, scale) jobs across workers with
  deterministic result merging, bounded retry, and graceful in-process
  fallback on worker crashes or timeouts.
* :mod:`repro.exec.cache` — a content-addressed on-disk store for
  built BVHs, ray populations, traversal traces, and treelet
  decompositions, shared by workers and repeat CLI invocations.

Typical use::

    from repro.core import TREELET_PREFETCH, SMOKE, run_sweep
    from repro.exec import set_artifact_cache

    set_artifact_cache("results/cache")          # optional, persistent
    sweep = run_sweep(TREELET_PREFETCH, ["WKND", "SHIP"], SMOKE, jobs=4)

See ``docs/execution.md`` for the cache layout and invalidation rules.
"""

from .cache import (
    ARTIFACT_KINDS,
    ArtifactCache,
    ArtifactCacheStats,
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE_DIR,
    cache_dir_from_env,
    default_cache_dir,
    get_artifact_cache,
    set_artifact_cache,
)
from .executor import (
    ExecutionReport,
    Job,
    compare_techniques_parallel,
    execute_jobs,
    metrics_progress,
    prewarm_replay_jobs,
    prewarm_replays,
    run_sweep_parallel,
)

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactCache",
    "ArtifactCacheStats",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExecutionReport",
    "Job",
    "cache_dir_from_env",
    "compare_techniques_parallel",
    "default_cache_dir",
    "execute_jobs",
    "get_artifact_cache",
    "metrics_progress",
    "prewarm_replay_jobs",
    "prewarm_replays",
    "run_sweep_parallel",
    "set_artifact_cache",
]
