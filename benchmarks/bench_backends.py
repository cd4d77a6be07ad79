"""MCUPS per sweep kernel per workload — the tracked perf trajectory.

The paper's whole claim is kernel throughput in linear space, so the
repo keeps an honest ledger of it: this script times a fixed set of
sweep kernels over Stage-1-shaped local sweeps and writes
``BENCH_backends.json``.  Workloads come in two shapes:

* ``MxN`` is one pair swept by ``rowscan`` (the serial
  :class:`~repro.align.rowscan.RowSweeper`, the pipeline's only sweep).
  Reported as MCUPS.
* ``KxMxN`` is K independent small pairs: a ``rowscan`` loop (build and
  run one sweeper per pair) against ``batched`` (the same K lanes fused
  through :func:`~repro.align.batched.sweep_batched`).  Reported as
  pairs/sec plus aggregate MCUPS.

Two destinations, one schema:

* ``benchmarks/out/BENCH_backends.json`` — scratch, gitignored, written
  on every run.
* ``benchmarks/trajectory/BENCH_backends.json`` — the **tracked**
  ledger, written only with ``--promote``; committing it is what makes
  the MCUPS trajectory visible across PRs (`git log -p` on the file).

Honesty rules, enforced:

* kernel names come from this script's fixed set (:data:`KERNELS`) —
  asking for any other name is an error, and :func:`validate_ledger`
  rejects any ledger mentioning one (CI runs it against the committed
  trajectory file, so schema or kernel-set drift fails the build);
* every ``batched`` lane is checked bit-identical to ``rowscan`` (best
  score, best cell and final row) before its timing is reported;
* timings are min-of-``--repeats`` wall clock on this host, whatever
  they turn out to be — the ledger records losses too, along with the
  host's ``cpu_count`` and its Python and NumPy versions.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py            # scratch
    PYTHONPATH=src python benchmarks/bench_backends.py --promote  # + tracked
    PYTHONPATH=src python benchmarks/bench_backends.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
if __package__ in (None, ""):
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np

from repro.align.batched import sweep_batched
from repro.align.rowscan import RowSweeper
from repro.errors import ConfigError
from repro.sequences.synth import random_dna

SCHEMA_VERSION = 4
OUT_PATH = BENCH_DIR / "out" / "BENCH_backends.json"
TRAJECTORY_PATH = BENCH_DIR / "trajectory" / "BENCH_backends.json"

DEFAULT_WORKLOADS = ("512x512", "1024x1024", "2048x2048", "8192x8192",
                     "64x256x256")
QUICK_WORKLOADS = ("256x256", "8x64x64")

#: Contenders per workload shape; :data:`KERNELS` is every name a ledger
#: may mention.
SINGLE_KERNELS = ("rowscan",)
PAIRS_KERNELS = ("rowscan", "batched")
KERNELS = tuple(sorted(set(SINGLE_KERNELS) | set(PAIRS_KERNELS)))


def _parse_workload(spec: str) -> tuple[int, ...]:
    """``MxN`` -> ``(m, n)`` (one pair); ``KxMxN`` -> ``(k, m, n)``
    (K independent pairs — the many-small-alignments workload)."""
    try:
        dims = tuple(int(part) for part in spec.lower().split("x"))
    except ValueError:
        dims = ()
    if len(dims) not in (2, 3) or any(d < 1 for d in dims):
        raise ConfigError(
            f"workload must look like 2048x2048 or 64x256x256, got {spec!r}")
    return dims


def _sweep_once(codes0, codes1, scheme):
    sweep = RowSweeper(codes0, codes1, scheme, local=True, track_best=True)
    start = time.perf_counter()
    sweep.run()
    seconds = time.perf_counter() - start
    return seconds, _lane_result(sweep)


def _pairs(k: int, m: int, n: int, seed: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    return [(random_dna(m, rng, f"A{i}").codes,
             random_dna(n, rng, f"B{i}").codes) for i in range(k)]


def _lane_result(sweep) -> tuple:
    return int(sweep.best), sweep.best_pos, sweep.H.copy()


def measure_pairs_workload(spec: str, kernels: list[str], scheme, *,
                           repeats: int, seed: int = 0) -> dict:
    """Time the pairs contenders on K independent small pairs.

    This is the workload batching exists for: construction cost and
    per-dispatch overhead dominate small matrices, so the timer wraps
    the whole loop — build sweepers, run them — not just the sweep.
    ``rowscan`` runs the K pairs one after another; ``batched`` hands
    the K lanes to :func:`sweep_batched` in fused dispatches.  Before
    any timing is reported, every kernel's per-pair
    ``best``/``best_pos``/final ``H`` row is checked bit-identical to an
    untimed rowscan pass.
    """
    k, m, n = _parse_workload(spec)
    pairs = _pairs(k, m, n, seed)
    reference = [_lane_result(RowSweeper(codes0, codes1, scheme, local=True,
                                         track_best=True).run())
                 for codes0, codes1 in pairs]
    entry: dict = {
        "kind": "pairs",
        "pairs": k,
        "cells": k * m * n,
        "best_score": sum(r[0] for r in reference),
        "backends": {},
    }
    for name in kernels:
        if name not in PAIRS_KERNELS:
            continue
        best = None
        for repeat in range(max(1, repeats)):
            start = time.perf_counter()
            lanes = [RowSweeper(codes0, codes1, scheme,
                                local=True, track_best=True)
                     for codes0, codes1 in pairs]
            if name == "batched":
                sweep_batched(lanes)
            else:
                for lane in lanes:
                    lane.run()
            seconds = time.perf_counter() - start
            best = seconds if best is None else min(best, seconds)
            if repeat == 0:
                for i, lane in enumerate(lanes):
                    got = _lane_result(lane)
                    assert got[0] == reference[i][0], (name, spec, i, "score")
                    assert got[1] == reference[i][1], (name, spec, i, "pos")
                    np.testing.assert_array_equal(
                        got[2], reference[i][2],
                        err_msg=f"{name} {spec} pair {i} H row")
        entry["backends"][name] = {
            "seconds": best,
            "pairs_per_sec": k / best,
            "mcups": (k * m * n) / best / 1e6,
        }
    _speedups(entry)
    return entry


def _speedups(entry: dict) -> None:
    base = entry["backends"].get("rowscan")
    for stats in entry["backends"].values():
        stats["speedup_vs_rowscan"] = (
            base["seconds"] / stats["seconds"] if base else None)


def measure_workload(spec: str, kernels: list[str], scheme, *,
                     repeats: int, seed: int = 0) -> dict:
    """Time the contenders on one workload; returns its ledger entry."""
    dims = _parse_workload(spec)
    if len(dims) == 3:
        return measure_pairs_workload(spec, kernels, scheme,
                                      repeats=repeats, seed=seed)
    m, n = dims
    rng = np.random.default_rng(seed)
    codes0 = random_dna(m, rng, "A").codes
    codes1 = random_dna(n, rng, "B").codes
    entry: dict = {"kind": "single", "cells": m * n, "backends": {}}
    for name in kernels:
        if name not in SINGLE_KERNELS:
            continue
        best = None
        for _ in range(max(1, repeats)):
            seconds, result = _sweep_once(codes0, codes1, scheme)
            best = seconds if best is None else min(best, seconds)
        entry["best_score"] = result[0]
        entry["backends"][name] = {
            "seconds": best,
            "mcups": (m * n) / best / 1e6,
        }
    _speedups(entry)
    return entry


def build_ledger(workloads, backends, *, repeats: int) -> dict:
    from repro.align.scoring import PAPER_SCHEME
    unknown = [b for b in backends if b not in KERNELS]
    if unknown:
        raise ConfigError(
            f"unknown kernels {unknown}; this script measures "
            f"{list(KERNELS)} — the ledger refuses to report names the code "
            f"cannot back")
    ledger: dict = {
        "schema": SCHEMA_VERSION,
        "kind": "BENCH_backends",
        "kernels": list(KERNELS),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
        "wins": {name: [] for name in backends},
    }
    for spec in workloads:
        entry = measure_workload(spec, list(backends), PAPER_SCHEME,
                                 repeats=repeats)
        ledger["workloads"][spec] = entry
        fastest = min(entry["backends"],
                      key=lambda b: entry["backends"][b]["seconds"])
        ledger["wins"][fastest].append(spec)
    return ledger


def validate_ledger(ledger: dict) -> None:
    """Reject a ledger whose schema or kernel names drifted from this
    script.  Raises ``ValueError`` with the first problem found."""
    if ledger.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"ledger schema {ledger.get('schema')!r} != {SCHEMA_VERSION}")
    if ledger.get("kind") != "BENCH_backends":
        raise ValueError(f"ledger kind {ledger.get('kind')!r}")
    known = set(KERNELS)
    recorded = ledger.get("kernels")
    if not isinstance(recorded, list) or set(recorded) != known:
        raise ValueError(
            f"ledger kernels {recorded!r} drifted from the measured set "
            f"({sorted(known)})")
    workloads = ledger.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise ValueError("ledger has no workloads")
    for spec, entry in workloads.items():
        dims = _parse_workload(spec)
        pairs_kind = len(dims) == 3
        required = ("cells", "best_score", "backends")
        if pairs_kind:
            required += ("pairs",)
        for key in required:
            if key not in entry:
                raise ValueError(f"workload {spec}: missing {key!r}")
        expected_kind = "pairs" if pairs_kind else "single"
        if entry.get("kind") != expected_kind:
            raise ValueError(
                f"workload {spec}: kind {entry.get('kind')!r}, "
                f"expected {expected_kind!r}")
        if not entry["backends"]:
            raise ValueError(f"workload {spec}: no backends")
        stat_keys = ("seconds", "mcups", "speedup_vs_rowscan")
        if pairs_kind:
            stat_keys += ("pairs_per_sec",)
        for name, stats in entry["backends"].items():
            if name not in known:
                raise ValueError(
                    f"workload {spec} reports unknown kernel {name!r}")
            for key in stat_keys:
                if not isinstance(stats.get(key), (int, float)):
                    raise ValueError(f"{spec}/{name}: bad {key!r}")
            if stats["seconds"] <= 0 or stats["mcups"] <= 0:
                raise ValueError(f"{spec}/{name}: non-positive timing")
    for name in ledger.get("wins", {}):
        if name not in known:
            raise ValueError(f"wins reports unknown kernel {name!r}")


def render(ledger: dict) -> str:
    lines = [f"sweep kernel MCUPS (cpu_count={ledger['cpu_count']})"]
    for spec, entry in ledger["workloads"].items():
        if entry.get("kind") == "pairs":
            lines.append(f"  {spec} ({entry['pairs']} pairs, "
                         f"score sum {entry['best_score']}):")
            for name, stats in sorted(entry["backends"].items()):
                lines.append(
                    f"    {name:<10} {stats['pairs_per_sec']:9.1f} pairs/s  "
                    f"{stats['mcups']:8.1f} MCUPS  "
                    f"({stats['speedup_vs_rowscan']:.2f}x rowscan)")
            continue
        lines.append(f"  {spec} (score {entry['best_score']}):")
        for name, stats in sorted(entry["backends"].items()):
            lines.append(f"    {name:<10} {stats['mcups']:9.1f} MCUPS  "
                         f"({stats['speedup_vs_rowscan']:.2f}x rowscan)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--backends", nargs="+", default=None,
                        help=f"kernels to measure (default: all of "
                             f"{', '.join(KERNELS)})")
    parser.add_argument("--workloads", nargs="+", default=None,
                        metavar="MxN", help="matrix sizes: 2048x2048 (one "
                             "pair) or 64x256x256 (K small pairs)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (min wall clock wins)")
    parser.add_argument("--quick", action="store_true",
                        help="one small workload, one repeat (CI smoke)")
    parser.add_argument("--out", default=None,
                        help=f"scratch output path (default {OUT_PATH})")
    parser.add_argument("--promote", action="store_true",
                        help="also write the tracked trajectory ledger "
                             f"({TRAJECTORY_PATH})")
    args = parser.parse_args(argv)

    backends = args.backends or list(KERNELS)
    if args.quick:
        workloads = args.workloads or list(QUICK_WORKLOADS)
        repeats = 1
    else:
        workloads = args.workloads or list(DEFAULT_WORKLOADS)
        repeats = args.repeats
    ledger = build_ledger(workloads, backends, repeats=repeats)
    validate_ledger(ledger)

    out_path = Path(args.out) if args.out else OUT_PATH
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(render(ledger))
    print(f"wrote {out_path}")
    if args.promote:
        TRAJECTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
        TRAJECTORY_PATH.write_text(
            json.dumps(ledger, indent=2, sort_keys=True) + "\n")
        print(f"promoted {TRAJECTORY_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
