"""``BENCHMARK.json`` (the benchmark's contract) and ``BENCH_e2e.json``
(the promoted, host-stamped ledger of one measured run)."""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = ROOT / "BENCHMARK.json"
LEDGER = Path(__file__).with_name("BENCH_e2e.json")
SCHEMA = 1
HOST_KEYS = ("cpu_count", "python", "numpy", "machine", "filesystems",
             "seed", "seconds", "commit")


def load_contract(path: Path = CONTRACT) -> dict[str, Any]:
    """Workload names, metric units per kind, and the run length."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {"workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "run_seconds": spec["run_seconds"]}


def filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest /proc/mounts match)."""
    path_s = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = path_s == mount or path_s.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(results: dict[str, dict[str, Any]], *, seed: int, seconds: float,
          work_root: Path) -> dict[str, Any]:
    """``results`` maps workload -> kind -> the run's JSON result."""
    host = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "filesystems": {"workload roots": filesystem(work_root)},
            "seed": seed, "seconds": seconds, "commit": git_commit()}
    return {"schema": SCHEMA, "kind": "BENCH_e2e", "host": host,
            "workloads": {
                name: {kind: {"correct": run["correct"],
                              "attempted": run["attempted"],
                              "failed": run["failed"],
                              "metrics": run["metrics"]}
                       for kind, run in kinds.items()}
                for name, kinds in results.items()}}


def validate(ledger: dict[str, Any], contract: dict[str, Any]) -> None:
    """Reject a ledger naming a workload or metric ``BENCHMARK.json`` does
    not, with a wrong unit, or with a non-finite value.  Raises
    ``ValueError`` with the first problem found."""
    if ledger.get("schema") != SCHEMA or ledger.get("kind") != "BENCH_e2e":
        raise ValueError(f"not a schema-{SCHEMA} BENCH_e2e ledger")
    host = ledger.get("host")
    if not isinstance(host, dict) or any(k not in host for k in HOST_KEYS):
        raise ValueError(f"host metadata must carry {HOST_KEYS}")
    workloads = ledger.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise ValueError("ledger has no workloads")
    for name, kinds in workloads.items():
        if name not in contract["workloads"]:
            raise ValueError(f"workload {name!r} is not in BENCHMARK.json")
        for kind, run in kinds.items():
            if kind not in ("end_to_end", "per_layer"):
                raise ValueError(f"{name}: unknown metric kind {kind!r}")
            units = contract[kind]
            for metric, entry in run["metrics"].items():
                if metric not in units:
                    raise ValueError(f"{name}: {kind} metric {metric!r} is "
                                     f"not in BENCHMARK.json")
                if entry.get("unit") != units[metric]:
                    raise ValueError(f"{name}: {metric} unit "
                                     f"{entry.get('unit')!r} != "
                                     f"{units[metric]!r}")
                value = entry.get("value")
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    raise ValueError(f"{name}: {metric} = {value!r}")


def write(ledger: dict[str, Any], path: Path = LEDGER) -> Path:
    path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
