"""Reference results every benchmark operation is checked against.

Two sources, both recorded from earlier runs of this model (not from
hardware):

* ``results/experiments.json`` ``fig07_overall_speedup``: baseline and
  treelet-prefetch cycles at default scale for the ten scenes the paper
  panel recorded;
* ``perfbench/golden.json``: for every operation any workload runs, the
  cycle count, a SHA-256 digest of the full ``SimStats`` and the counts
  the layers produced (traversal summary, BVH nodes, treelets).

Regenerate ``golden.json`` with ``python3 perfbench/golden.py``.  It
runs every operation under both replay engines and refuses to write
unless they agree bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
EXPERIMENTS_PATH = ROOT / "results" / "experiments.json"
SCHEMA = "perfbench.golden/1"

#: fig07 records treelet-prefetch and baseline cycles under these keys.
_FIG07_FIELDS = {"baseline": "base_cycles", "treelet-prefetch": "pref_cycles"}


def op_key(scene: str, technique: str, scale: str, workload: str) -> str:
    return f"{scene}|{technique}|{scale}|{workload}"


def stats_digest(stats_doc: dict) -> str:
    """SHA-256 of a ``SimStats`` as plain data (``dataclasses.asdict``
    form; the wire form's ``derived`` section is dropped first)."""
    doc = {k: v for k, v in stats_doc.items() if k != "derived"}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_record(result) -> dict:
    """What the references pin for one ``repro.api.run`` result."""
    return {
        "cycles": result.cycles,
        "stats_sha256": stats_digest(dataclasses.asdict(result.stats)),
        "traversal": dataclasses.asdict(result.traversal),
        "bvh_nodes": result.tree.node_count,
        "treelets": result.treelet_count,
    }


class References:
    """Recorded values, looked up per operation."""

    def __init__(self, golden: dict, fig07: dict) -> None:
        self.golden = golden
        self.fig07 = fig07

    @classmethod
    def load(cls) -> "References":
        golden = json.loads(GOLDEN_PATH.read_text())
        if golden.get("schema") != SCHEMA:
            raise ValueError(f"{GOLDEN_PATH} is not a {SCHEMA} document")
        experiments = json.loads(EXPERIMENTS_PATH.read_text())
        return cls(golden["entries"], experiments["fig07_overall_speedup"])

    def fig07_cycles(self, scene: str, technique: str, scale: str,
                     workload: str) -> Optional[int]:
        entry = self.fig07.get(scene)
        field = _FIG07_FIELDS.get(technique)
        if (not isinstance(entry, dict) or field is None
                or scale != self.fig07.get("scale") or workload != "render"):
            return None
        return entry[field]

    def check(self, key: tuple, record: dict) -> Optional[str]:
        """None when ``record`` matches every reference for ``key``,
        else a one-line description of the first mismatch.  ``record``
        may hold only ``cycles`` and ``stats_sha256`` (a served result
        carries no traversal summary)."""
        recorded = self.fig07_cycles(*key)
        if recorded is not None and record["cycles"] != recorded:
            return (f"{op_key(*key)}: cycles {record['cycles']} != "
                    f"{recorded} recorded in fig07_overall_speedup")
        golden = self.golden.get(op_key(*key))
        if golden is None:
            return f"{op_key(*key)}: no golden entry"
        for name, value in record.items():
            if golden.get(name) != value:
                return (f"{op_key(*key)}: {name} {value!r} != golden "
                        f"{golden.get(name)!r}")
        return None


def _generate() -> Dict[str, dict]:
    """Every operation of every workload under both replay engines."""
    from workloads import all_operation_keys

    from repro.api import run

    entries: Dict[str, dict] = {}
    for key in all_operation_keys():
        scene, technique, scale, workload = key
        records = {
            engine: result_record(run(
                scene, technique, scale, workload=workload, cache=False,
                replay_backend=engine,
            ))
            for engine in ("batched", "scalar")
        }
        if records["batched"] != records["scalar"]:
            raise SystemExit(
                f"{op_key(*key)}: replay engines disagree: {records}"
            )
        entries[op_key(*key)] = records["batched"]
        print(f"{op_key(*key)}: {records['batched']['cycles']} cycles",
              file=sys.stderr)
    return entries


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    document = {
        "schema": SCHEMA,
        "note": ("Recorded from this model under both replay engines "
                 "(batched and scalar), which agreed bit for bit; not "
                 "measured on hardware."),
        "entries": _generate(),
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True)
                           + "\n")
