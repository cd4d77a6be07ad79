"""One end-to-end benchmark with a traced per-layer breakdown.

Run from the repository root (no install, no build)::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--promote]

``python3 -m benchmarks.e2e`` takes the same arguments.  Each workload
runs in its own fresh interpreter.  Every metric is printed as
``workload metric value unit``; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace`` (or ``--trace 1``) reports the per-layer
metrics instead of the end-to-end ones and writes each workload's spans
to ``benchmarks/out/e2e/<workload>.trace.jsonl``.  The exit code is 0
only when every correctness check passed.

README.md in this directory describes the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out" / "e2e"
#: Budget for one workload process; the caller's limit is 180 s.
CHILD_TIMEOUT = 170


def bootstrap() -> None:
    """Put ``src/`` and the repository root on the path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run the benchmark "
                 f"from a checkout of the repository")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"error: {ROOT / 'BENCHMARK.json'} not found")
    sys.path[:0] = [str(SRC), str(ROOT)]


def parse_args(argv, contract: dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark with a traced per-layer breakdown")
    parser.add_argument("--workload", action="append",
                        choices=contract["workloads"],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed every input is generated from")
    # --seconds and the "--trace 0|1" form are part of the interface every
    # runner of a BENCHMARK.json command uses ("--workload W --seed N
    # --seconds S --trace 0|1"), so both stay accepted.
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each timed phase (default: "
                             "BENCHMARK.json's run_seconds; 1 with --quick)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="smaller inputs and 1 s phases (smoke test)")
    parser.add_argument("--promote", action="store_true",
                        help="run untraced and traced, then write the "
                             "ledger benchmarks/e2e/BENCH_e2e.json")
    # Internal: one workload in this process / one cold set-up / a
    # deliberately wrong expectation for the harness's own tests.
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tamper", choices=("score", "body"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(contract["run_seconds"])
    args.workload = args.workload or list(contract["workloads"])
    if (args.child or args.probe) and len(args.workload) != 1:
        parser.error("--child/--probe take exactly one --workload")
    return args


def make_context(args, contract):
    from benchmarks.e2e.workloads import Context
    return Context(args.workload[0], args.seed, args.seconds,
                   trace=bool(args.trace), quick=args.quick,
                   tamper=args.tamper, contract=contract)


def run_probe(args, contract) -> int:
    """One cold set-up, timed from outside by the workload process."""
    from benchmarks.e2e.workloads import WORKLOADS
    ctx = make_context(args, contract)
    try:
        WORKLOADS[ctx.workload][1](ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    return 0


def run_child(args, contract) -> int:
    """Run one workload in this interpreter; print its JSON result."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    from benchmarks.e2e.workloads import WORKLOADS
    ctx = make_context(args, contract)
    try:
        WORKLOADS[ctx.workload][0](ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    missing = sorted(set(ctx.units) - set(ctx.values))
    if ctx.trace:
        # A layer this workload never calls, or whose calls happen where
        # no span reaches, reads 0 (its call counts too).
        ctx.values.update(dict.fromkeys(missing, 0.0))
        ctx.details["not_measured"] = missing
    elif missing:
        raise RuntimeError(f"{ctx.workload} emitted no {missing}")
    bad = [name for name, value in ctx.values.items()
           if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"{ctx.workload}: non-finite {bad}")
    result = {"correct": ctx.correct, "attempted": ctx.attempted,
              "failed": ctx.failed,
              "metrics": {name: {"value": value, "unit": ctx.units[name]}
                          for name, value in sorted(ctx.values.items())}}
    stem = f"{ctx.workload}.trace" if ctx.trace else ctx.workload
    details = {"workload": ctx.workload, "seed": ctx.seed,
               "seconds": ctx.seconds, "quick": ctx.quick,
               "checks": ctx.checks, **result, **ctx.details}
    if ctx.recorder is not None:
        details["span_counts"] = dict(
            Counter(span.name for span in ctx.recorder.spans))
        ctx.recorder.write(OUT / f"{ctx.workload}.trace.jsonl",
                           {"workload": ctx.workload, "seed": ctx.seed,
                            "spans": len(ctx.recorder.spans)})
    (OUT / f"{stem}.json").write_text(
        json.dumps(details, indent=2, sort_keys=True, default=float) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if ctx.correct else 1


def spawn(args, name: str, trace: int) -> dict[str, Any]:
    """Run one workload in a fresh interpreter (its own process group, so
    a timeout takes down everything it started)."""
    cmd = [sys.executable, str(Path(__file__)), "--child", "--workload",
           name, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.quick:
        cmd.append("--quick")
    if args.tamper:
        cmd += ["--tamper", args.tamper]
    failure = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    process = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"error: {name} exceeded {CHILD_TIMEOUT}s", file=sys.stderr)
        return failure
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"error: {name} exited {process.returncode} without a result",
              file=sys.stderr)
        return failure
    if process.returncode != 0:
        result["correct"] = False
    return result


def report(name: str, trace: int, result: dict[str, Any]) -> None:
    """Human-readable lines: failed checks, the breakdown, every metric."""
    stem = f"{name}.trace" if trace else name
    path = OUT / f"{stem}.json"
    details = json.loads(path.read_text()) if path.exists() else {}
    for check, entry in sorted(details.get("checks", {}).items()):
        if entry["failed"]:
            print(f"{name} CHECK FAILED {check}: {entry['failed']} of "
                  f"{entry['passed'] + entry['failed']} "
                  f"(first: {entry['first_failure']})")
    breakdown = details.get("breakdown")
    if trace and breakdown:
        wall = breakdown["wall_s"]
        print(f"{name} breakdown of one pipeline run "
              f"(mean of {breakdown['runs']}, wall {wall:.4f} s):")
        for row, seconds in sorted(breakdown["rows_s"].items(),
                                   key=lambda kv: -kv[1]):
            print(f"{name}   {row:<24} {seconds:10.4f} s "
                  f"{100 * seconds / wall:6.2f} %")
        print(f"{name} stage walls including their sweeps and flushes: " +
              "  ".join(f"{stage[5:]} {seconds:.4f} s "
                        f"({100 * seconds / wall:.1f} %)"
                        for stage, seconds in
                        breakdown["stages_inclusive_s"].items()))
    for metric, entry in sorted(result["metrics"].items()):
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    bootstrap()
    from benchmarks.e2e import ledger
    contract = ledger.load_contract()
    args = parse_args(argv, contract)
    if args.probe:
        return run_probe(args, contract)
    if args.child:
        return run_child(args, contract)

    traces = (0, 1) if args.promote else (args.trace,)
    results: dict[str, dict[str, Any]] = {}
    for trace in traces:
        kind = "per_layer" if trace else "end_to_end"
        for name in args.workload:
            result = spawn(args, name, trace)
            results.setdefault(name, {})[kind] = result
            report(name, trace, result)
    runs = [run for kinds in results.values() for run in kinds.values()]
    correct = all(run["correct"] for run in runs)
    if args.promote:
        if not correct:
            print("error: not promoting a run whose checks failed",
                  file=sys.stderr)
        else:
            built = ledger.build(results, seed=args.seed,
                                 seconds=args.seconds, work_root=OUT)
            ledger.validate(built, contract)
            print(f"promoted {ledger.write(built).relative_to(ROOT)}")
    if len(runs) == 1:
        final = runs[0]
    else:
        final = {"correct": correct,
                 "attempted": sum(run["attempted"] for run in runs),
                 "failed": sum(run["failed"] for run in runs),
                 "metrics": {f"{name}/{metric}": entry
                             for name, kinds in results.items()
                             for run in kinds.values()
                             for metric, entry in run["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
