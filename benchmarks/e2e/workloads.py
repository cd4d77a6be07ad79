"""The four workloads of the end-to-end benchmark.

Each workload builds its inputs from the seed, runs a timed phase of
about ``--seconds`` seconds, checks every output it produced, and emits
the metrics ``BENCHMARK.json`` names: the end-to-end ones on an untraced
run, the per-layer ones on a traced run.

The per-layer rows come from the runs the workload times.  On the pair
workloads they are the spans of each ``CUDAlign.run``.  On the service
workloads they are the spans each worker process wrote into its job's
``manifest.json``, read back after the job, together with the job
records and the service's metrics snapshot.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.align.rowscan import RowSweeper
from repro.core import CUDAlign, small_config
from repro.sequences.catalog import get_entry
from repro.service import AlignmentService, JobSpec, prepare_group
from repro.storage.binary_alignment import BinaryAlignment

from benchmarks.e2e import loadgen
from benchmarks.e2e.tracing import (FULL_MATRIX, SEQUENCES, SUBMIT,
                                    UNATTRIBUTED, Recorder,
                                    exclusive_seconds, nest)

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).with_name("run.py")
OUT = ROOT / "benchmarks" / "out" / "e2e"

#: Worker processes of the service and the gateway.
WORKERS = 2
#: Pipeline knobs of the pair workloads (and of every JobSpec default).
#: The pipeline keeps its default single thread: two threads made Stage 4
#: slower under the interpreter lock (huge-pair 4.1-4.4 s -> 4.9-5.4 s).
PAIR_KNOBS = dict(block_rows=64, sra_rows=8, max_partition_size=32)
HUGE = ("5227Kx5229K", 256)        # 20414 x 20424 at seed 0, near-identical
SHORT = ("23012Kx24544K", 1024)    # 22472 x 23968, a short local hit
SMALL = ("162Kx172K", 8192)        # 384 x 384, under BatchConfig.max_cells
MEDIUM = ("543Kx536K", 512)        # 1060 x 1047, over it: solo dispatch
#: ``--quick`` divides the pair sizes by this and shrinks every count.
QUICK_SHRINK = 4

#: Cold set-ups per run, half before the timed phase and half after it,
#: so that one slow stretch of a drifting host does not set the median.
SETUP_REPEATS = 6
BATCH_JOBS = 256
#: Jobs per second, open loop: 200 jobs in a 20 s phase, so 10 lie beyond
#: p95.  On a 2-core host 30/s sat near the knee (p95 0.13-0.26 s over 5
#: seeds).  At 20/s, six runs of one seed spread p50 and p95 latency by
#: 0.34 and 0.40 of their medians (quartile distance); at 10/s by 0.12
#: and 0.13.
GATEWAY_RATE = 10.0
#: The gateway traffic is an assumption, not a recording: no job log or
#: documented mix exists to take it from.  It is chosen to send work down
#: each service path (grouped small jobs, solo medium jobs, cache hits).
GATEWAY_MIX = {"small": 0.60, "medium": 0.25, "duplicate": 0.15}
TENANTS = 8
SAMPLE_CHECKS = 32
#: Lanes of the inline ``prepare_group`` behind ``align.batched_presweep_s``.
PRESWEEP_LANES = 16
RESULT_KEYS = ("best_score", "alignment_length", "start", "end", "m", "n")


class Context:
    """One workload run: its arguments, emitted metrics and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, *,
                 trace: bool, quick: bool, tamper: str | None,
                 contract: dict[str, dict[str, str]]):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.tamper = tamper
        self.kind = "per_layer" if trace else "end_to_end"
        self.units = contract[self.kind]
        self.recorder = Recorder() if trace else None
        self.work = OUT / "work" / f"{workload}-{os.getpid()}"
        self.values: dict[str, float] = {}
        self.checks: dict[str, dict[str, Any]] = {}
        self.attempted = 0
        self.failed = 0
        self.details: dict[str, Any] = {}
        # For the processes this run starts: the gateway server imports
        # ``repro`` from the checkout, and nothing writes to the system
        # temp directory.
        self.env = dict(
            os.environ, TMPDIR=str(OUT / "tmp"),
            PYTHONPATH=os.pathsep.join(filter(None, (
                str(ROOT / "src"), os.environ.get("PYTHONPATH")))))

    def emit(self, name: str, value: float) -> None:
        if name not in self.units:
            raise KeyError(f"{name!r} is not a {self.kind} metric of "
                           f"BENCHMARK.json")
        self.values[name] = float(value)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.checks.setdefault(
            name, {"passed": 0, "failed": 0, "first_failure": None})
        entry["passed" if ok else "failed"] += 1
        if not ok and entry["first_failure"] is None:
            entry["first_failure"] = detail

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(
            entry["failed"] == 0 for entry in self.checks.values())

    def traced(self, targets):
        return (self.recorder.patched(targets) if self.recorder is not None
                else contextlib.nullcontext())

    def count(self, base: int) -> int:
        return max(1, base // QUICK_SHRINK) if self.quick else base


# ------------------------------------------------------------------ helpers
def pct(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def job_seed(seed: int, index: int) -> int:
    """Distinct catalog seeds per job, all derived from the run's seed."""
    return seed * 1_000_000 + index


def peak_rss_mb() -> float:
    """Peak resident set of this process and every child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0         # ru_maxrss is KiB on Linux


def repeat(fn: Callable[[], float], seconds: float) -> list[float]:
    """Call ``fn`` (which returns its own timed wall) until ``seconds`` of
    wall time have passed; at least once."""
    start = time.perf_counter()
    walls = [fn()]
    while time.perf_counter() - start < seconds:
        walls.append(fn())
    return walls


def setup_probes(ctx: Context) -> list[float]:
    """Walls of half of a run's cold set-ups: each a fresh interpreter that
    imports the workload's layers, builds its inputs and brings its
    service up."""
    cmd = [sys.executable, str(RUN_PY), "--probe", "--workload",
           ctx.workload, "--seed", str(ctx.seed)]
    if ctx.quick:
        cmd.append("--quick")
    samples = []
    for _ in range(SETUP_REPEATS // 2):
        tick = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms,
        # which would quantize the measurement.  run.py's own process-
        # group timeout covers a hung probe.
        subprocess.run(cmd, cwd=ROOT, env=ctx.env, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - tick)
    return samples


def emit_setup(ctx: Context, samples: list[float]) -> None:
    ctx.details["setup_samples_s"] = samples
    ctx.emit("setup_s", np.median(samples))


def summary_of(result) -> dict[str, Any]:
    """The result fields a job summary carries, from a PipelineResult."""
    alignment = result.alignment
    return {"best_score": result.best_score,
            "alignment_length": result.alignment_length,
            "start": list(alignment.start) if alignment else None,
            "end": list(alignment.end) if alignment else None,
            "m": result.m, "n": result.n}


def final_crosspoints(counts: dict[str, int]) -> int:
    """Length of the last crosspoint chain (L1 < L2 < L3 < L4)."""
    return counts[max(counts)]


def size_class(spec: dict[str, Any]) -> str:
    return "medium" if spec["catalog"] == MEDIUM[0] else "small"


# ------------------------------------------------------- per-layer rows
def pipeline_layers(ctx: Context, roots, crosspoints: list[int], *,
                    walls: list[float] | None = None,
                    full_matrix: bool = False) -> None:
    """Means per pipeline run of the core, align and storage layers.

    ``roots`` are the spans of whole runs: ``core.run`` around a pair's
    ``CUDAlign.run``, or a service job's ``core.pipeline``.  Time rows
    are self times (:func:`exclusive_seconds`), so they add up to the
    run's wall; ``walls`` (measured around each call apart from the
    spans) turns that into a checked claim.  ``full_matrix`` says the
    ``global_align`` wrapper was on; without it Stage 5's full-matrix
    time stays in ``core.stage5_s``.
    """
    traces = ctx.recorder.by_trace()
    rows: dict[str, float] = defaultdict(float)
    stages: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    cells = sra_bytes = 0
    sweep_busy = 0.0
    for index, root in enumerate(roots):
        inside = nest(root, traces[root.trace])
        split = exclusive_seconds(root, inside)
        for name, seconds in split.items():
            rows[name] += seconds
        if walls is not None:
            total = sum(split.values())
            ctx.check("layer rows + unattributed equal the CUDAlign.run "
                      "wall within 1%, and none is negative",
                      abs(total - walls[index]) <= 0.01 * walls[index]
                      and min(split.values()) >= -1e-9,
                      f"{total:.4f}s vs {walls[index]:.4f}s")
        for span in inside:
            calls[span.name] += 1
            if span.name == "align.sweep":
                cells += span.attrs["rows"] * span.attrs["n"]
                sweep_busy += span.seconds
            elif span.name == "storage.sra_save":
                sra_bytes += span.attrs["nbytes"]
            elif span.name.startswith("core.stage"):
                stages[span.name] += span.seconds
    runs = len(roots)
    wall = sum(root.seconds for root in roots)
    for stage in range(1, 6):
        ctx.emit(f"core.stage{stage}_s", rows[f"core.stage{stage}"] / runs)
    ctx.emit("core.unattributed_s", rows[UNATTRIBUTED] / runs)
    ctx.emit("core.unattributed_frac", rows[UNATTRIBUTED] / wall)
    ctx.emit("core.crosspoints", sum(crosspoints) / runs)
    ctx.emit("align.sweep_calls", calls["align.sweep"] / runs)
    ctx.emit("align.sweep_cells", cells / runs)
    ctx.emit("align.sweep_s", rows["align.sweep"] / runs)
    ctx.emit("align.sweep_mcups", cells / sweep_busy / 1e6 if sweep_busy
             else 0.0)
    ctx.emit("align.mm_midpoint_calls", calls["align.mm_midpoint"] / runs)
    ctx.emit("align.mm_midpoint_s", rows["align.mm_midpoint"] / runs)
    if full_matrix:
        ctx.emit("align.full_matrix_calls",
                 calls["align.full_matrix"] / runs)
        ctx.emit("align.full_matrix_s", rows["align.full_matrix"] / runs)
    ctx.emit("storage.sra_saves", calls["storage.sra_save"] / runs)
    ctx.emit("storage.sra_bytes", sra_bytes / runs)
    ctx.emit("storage.sra_save_s", rows["storage.sra_save"] / runs)
    ctx.emit("storage.sra_load_s", rows["storage.sra_load"] / runs)
    ctx.emit("storage.checkpoint_saves", calls["storage.checkpoint"] / runs)
    ctx.emit("storage.checkpoint_s", rows["storage.checkpoint"] / runs)
    ctx.details["breakdown"] = {
        "runs": runs, "wall_s": wall / runs,
        "rows_s": {name: seconds / runs
                   for name, seconds in sorted(rows.items())},
        # Context only: stage walls *with* their sweeps and flushes.
        "stages_inclusive_s": {name: seconds / runs
                               for name, seconds in sorted(stages.items())}}


def read_jobs(ctx: Context, root: Path, records: list[dict[str, Any]]
              ) -> dict[str, tuple[Any, int]]:
    """Adopt the spans each ran job's worker wrote to its manifest.

    Returns job id -> (its ``core.pipeline`` span, final crosspoints).
    Cached jobs ran no pipeline and have no manifest.
    """
    jobs = {}
    for record in records:
        if record["state"] != "succeeded":
            continue
        job_id = record["job_id"]
        manifest = json.loads(
            (root / "jobs" / job_id / "manifest.json").read_text())
        spans = ctx.recorder.adopt(manifest["spans"], f"job:{job_id}")
        pipeline = next(s for s in spans if s.name == "core.pipeline")
        jobs[job_id] = (pipeline, final_crosspoints(
            manifest["result"]["crosspoint_counts"]))
    return jobs


def service_layers(ctx: Context, records: list[dict[str, Any]],
                   jobs: dict[str, tuple[Any, int]], counters: Counter
                   ) -> None:
    """Core/align/storage rows of the jobs the workers ran, and the
    service rows from job records and the metrics snapshot."""
    pipeline_layers(ctx, [root for root, _ in jobs.values()],
                    [points for _, points in jobs.values()])
    ran = [r for r in records if r["state"] == "succeeded"]
    waits = [r["started_unix"] - r["submitted_unix"] for r in ran]
    attempts = {r["job_id"]: r["finished_unix"] - r["started_unix"]
                for r in ran}
    overhead: dict[str, list[float]] = defaultdict(list)
    for r in ran:
        overhead[size_class(r["spec"])].append(
            attempts[r["job_id"]] - jobs[r["job_id"]][0].seconds)
    ctx.emit("service.queue_wait_p50_s", pct(waits, 50))
    ctx.emit("service.queue_wait_p95_s", pct(waits, 95))
    ctx.emit("service.attempt_p50_s", pct(list(attempts.values()), 50))
    ctx.emit("service.pipeline_p50_s",
             pct([root.seconds for root, _ in jobs.values()], 50))
    for cls, samples in overhead.items():
        ctx.emit(f"service.dispatch_overhead_s.{cls}", pct(samples, 50))
    started = sum(r["attempts"] for r in records)
    grouped = counters["kernel.batch.jobs"]
    dispatches = counters["kernel.batch.dispatches"] + started - grouped
    ctx.emit("service.group_size_mean",
             started / dispatches if dispatches else 0.0)
    ctx.emit("service.cache_hit_frac",
             sum(r["state"] == "cached" for r in records) / len(records))
    ctx.emit("service.extra_attempts",
             sum(max(0, r["attempts"] - 1) for r in records))
    if counters["padding_waste.groups"]:
        ctx.emit("align.batched_padding_waste",
                 counters["padding_waste.total"]
                 / counters["padding_waste.groups"])


def batch_counters(snapshot: dict[str, Any]) -> Counter:
    """The micro-batcher's numbers from a service metrics snapshot."""
    waste = snapshot.get("kernel.batch.padding_waste") or {}
    return Counter({
        "kernel.batch.jobs": snapshot.get("kernel.batch.jobs", 0),
        "kernel.batch.dispatches": snapshot.get("kernel.batch.dispatches",
                                                0),
        "padding_waste.total": waste.get("total", 0.0),
        "padding_waste.groups": waste.get("count", 0)})


def presweep(ctx: Context, specs: list[JobSpec]) -> None:
    """``align.batched_presweep_s``: one inline ``prepare_group`` over the
    workload's own first small specs.  The workers' presweeps run inside
    a group child and write no span, so this is timed here instead."""
    group = specs[:PRESWEEP_LANES]
    tick = time.perf_counter()
    prepare_group(group)
    ctx.emit("align.batched_presweep_s", time.perf_counter() - tick)
    ctx.details["presweep_lanes"] = len(group)


def check_sample(ctx: Context, records: list[dict[str, Any]]) -> None:
    """A seeded sample of finished jobs must equal an in-process
    ``CUDAlign.run`` of the same spec."""
    ran = [r for r in records if r.get("result")]
    rng = np.random.default_rng([ctx.seed, 7])
    picks = rng.choice(len(ran), size=min(SAMPLE_CHECKS, len(ran)),
                       replace=False)
    for k in sorted(picks):
        record = ran[k]
        spec = JobSpec.from_json(record["spec"])
        s0, s1 = spec.load_sequences()
        expect = summary_of(CUDAlign(spec.pipeline_config(n=len(s1))).run(
            s0, s1, visualize=False))
        expect["best_score"] += ctx.tamper == "score"
        got = {key: record["result"].get(key) for key in RESULT_KEYS}
        ctx.check("sampled jobs equal an in-process CUDAlign.run",
                  got == expect, f"{record['job_id']}: {got} != {expect}")


# -------------------------------------------------------------- pair runs
def pair_inputs(ctx: Context, key: str, scale: int):
    shrink = QUICK_SHRINK if ctx.quick else 1
    s0, s1 = get_entry(key).build(scale=scale * shrink, seed=ctx.seed)
    return s0, s1, small_config(n=len(s1), **PAIR_KNOBS)


def probe_pair(ctx: Context, key: str, scale: int) -> None:
    _, _, config = pair_inputs(ctx, key, scale)
    CUDAlign(config, workdir=ctx.work / "probe")


def check_pair(ctx: Context, s0, s1, config, result,
               expected: tuple[int, tuple[int, int]]) -> None:
    score, end = expected
    alignment = result.alignment
    ctx.check("best_score equals an independent Stage-1 sweep",
              result.best_score == score, f"{result.best_score} != {score}")
    if alignment is None:
        ctx.check("an alignment was produced", False, "alignment is None")
        return
    ctx.check("end position equals the independent sweep's",
              tuple(alignment.end) == end, f"{alignment.end} != {end}")
    rescored = alignment.score(s0, s1, config.scheme)
    ctx.check("Alignment.score equals best_score",
              rescored == result.best_score,
              f"{rescored} != {result.best_score}")
    back = BinaryAlignment.decode(result.binary.encode())
    path = back.reconstruct()
    ctx.check("BinaryAlignment encode/decode round-trips",
              back == result.binary and path.start == alignment.start
              and np.array_equal(path.ops, alignment.ops))


def run_pair(ctx: Context, key: str, scale: int) -> None:
    """Median of timed ``CUDAlign.run`` calls on one on-disk workdir,
    after an untimed check sweep."""
    setups = [] if ctx.trace else setup_probes(ctx)
    with ctx.traced(SEQUENCES):
        s0, s1, config = pair_inputs(ctx, key, scale)
    if ctx.trace:
        ctx.emit("sequences.build_s",
                 ctx.recorder.named("sequences.build")[0].seconds)
    reference = RowSweeper(s0.codes, s1.codes, config.scheme, local=True,
                           track_best=True).run()
    expected = (reference.best + (ctx.tamper == "score"),
                tuple(reference.best_pos))
    workdir = ctx.work / "pair"
    crosspoints: list[int] = []

    def align(trace: str | None = None) -> float:
        """One checked run; with a trace id, its spans are recorded."""
        shutil.rmtree(workdir, ignore_errors=True)
        with (ctx.recorder.span("core.run", trace) if trace
              else contextlib.nullcontext()):
            tick = time.perf_counter()
            result = CUDAlign(config, workdir=workdir).run(s0, s1,
                                                           visualize=False)
            wall = time.perf_counter() - tick
        ctx.attempted += 1
        check_pair(ctx, s0, s1, config, result, expected)
        if trace:
            ctx.recorder.adopt(result.spans, trace)
            crosspoints.append(final_crosspoints(result.crosspoint_counts))
        return wall

    cells = len(s0) * len(s1)
    ctx.details["m"], ctx.details["n"] = len(s0), len(s1)
    if not ctx.trace:
        walls = repeat(align, ctx.seconds)
        emit_setup(ctx, setups + setup_probes(ctx))
        ctx.details["walls_s"] = walls
        ctx.emit("latency_p50_s", np.median(walls))
        ctx.emit("latency_p95_s", pct(walls, 95))
        ctx.emit("mcups", cells / np.median(walls) / 1e6)
        ctx.emit("jobs_per_s", len(walls) / sum(walls))
        ctx.emit("peak_rss_mb", peak_rss_mb())
        return
    traced: list[float] = []
    untraced: list[float] = []

    def traced_then_untraced() -> float:
        with ctx.recorder.patched(FULL_MATRIX):
            traced.append(align(f"run:{len(traced)}"))
        untraced.append(align())
        return traced[-1] + untraced[-1]

    repeat(traced_then_untraced, ctx.seconds)
    ctx.details["walls_s"] = {"untraced": untraced, "traced": traced}
    pipeline_layers(ctx, ctx.recorder.named("core.run"), crosspoints,
                    walls=traced, full_matrix=True)
    ctx.emit("trace.overhead_frac", np.median(
        [t / u for t, u in zip(traced, untraced)]) - 1.0)


# ------------------------------------------------------------ batch-small
def batch_specs(ctx: Context, batch: int) -> list[JobSpec]:
    key, scale = SMALL
    size = ctx.count(BATCH_JOBS)
    return [JobSpec(job_id=f"b{batch}-{i}", catalog=key, scale=scale,
                    seed=job_seed(ctx.seed, batch * size + i))
            for i in range(size)]


def probe_batch(ctx: Context) -> None:
    batch_specs(ctx, 0)
    root = ctx.work / "probe"
    AlignmentService(root, workers=WORKERS).close()
    shutil.rmtree(root, ignore_errors=True)


def run_batch(ctx: Context) -> None:
    """Closed batches of distinct small jobs, all submitted at t=0 to a
    fresh ``AlignmentService``; repeated for ``--seconds``.  A traced run
    alternates traced and untraced batches."""
    setups = [] if ctx.trace else setup_probes(ctx)
    walls: list[float] = []
    traced_walls: list[float] = []
    cells: list[int] = []
    records: list[dict[str, Any]] = []
    jobs: dict[str, tuple[Any, int]] = {}
    counters: Counter = Counter()

    def one_batch() -> float:
        index = len(walls) + len(traced_walls)
        traced = ctx.trace and index % 2 == 0
        specs = batch_specs(ctx, index)
        root = ctx.work / f"batch-{index}"
        service = AlignmentService(root, workers=WORKERS)
        try:
            with (ctx.recorder.patched(SUBMIT + SEQUENCES) if traced
                  else contextlib.nullcontext()):
                tick = time.perf_counter()
                service.submit_many(specs)
                service.run()
                wall = time.perf_counter() - tick
            done = [record.to_json() for record in service.queue.records()]
            snapshot = service.telemetry.metrics.snapshot()
            if ctx.trace:
                jobs.update(read_jobs(ctx, root, done))
        finally:
            service.close()
            shutil.rmtree(root, ignore_errors=True)
        (traced_walls if traced else walls).append(wall)
        records.extend(done)
        cells.append(sum(r["result"]["m"] * r["result"]["n"]
                         for r in done if r.get("result")))
        counters.update(batch_counters(snapshot))
        return wall

    repeat(one_batch, ctx.seconds)
    if not ctx.trace:
        emit_setup(ctx, setups + setup_probes(ctx))
    ctx.attempted = len(records)
    ctx.failed = sum(r["state"] not in ("succeeded", "cached")
                     for r in records)
    for r in records:
        ctx.check("every job ends succeeded or cached",
                  r["state"] in ("succeeded", "cached"),
                  f"{r['job_id']}: {r['state']} {r.get('error')}")
    with ctx.traced(SEQUENCES):
        check_sample(ctx, records)
    ctx.details["batch_walls_s"] = {"untraced": walls, "traced": traced_walls}
    ctx.details["batch_jobs"] = ctx.count(BATCH_JOBS)
    if not ctx.trace:
        latency = [r["finished_unix"] - r["submitted_unix"] for r in records]
        ctx.emit("latency_p50_s", pct(latency, 50))
        ctx.emit("latency_p95_s", pct(latency, 95))
        ctx.emit("jobs_per_s", np.median([ctx.count(BATCH_JOBS) / w
                                          for w in walls]))
        ctx.emit("mcups", np.median([c / w for c, w in zip(cells, walls)])
                 / 1e6)
        ctx.emit("peak_rss_mb", peak_rss_mb())
        return
    ctx.emit("service.submit_s", np.mean(
        [s.seconds for s in ctx.recorder.named("service.submit")]))
    ctx.emit("sequences.build_s", np.mean(
        [s.seconds for s in ctx.recorder.named("sequences.build")]))
    service_layers(ctx, records, jobs, counters)
    presweep(ctx, batch_specs(ctx, 0))
    if walls:
        ctx.emit("trace.overhead_frac",
                 np.median(traced_walls) / np.median(walls) - 1.0)


# ----------------------------------------------------------- gateway-open
def gateway_jobs(ctx: Context, count: int
                 ) -> tuple[list[tuple[str, dict[str, Any]]], dict[str, str]]:
    """The open-loop schedule: the assumed :data:`GATEWAY_MIX` in exact
    proportions, round-robin over the tenants.  Returns the ``(tenant,
    payload)`` list and each duplicate's original job id.

    The order of kinds, and which earlier job each duplicate repeats, is
    the same for every seed; the seed picks the sequences.  With a seeded
    order, p95 latency over 6 seeds spanned 0.095-0.170 s against
    0.120-0.140 s for 6 repeats of one seed.
    """
    kinds = []
    for kind, share in GATEWAY_MIX.items():
        kinds += [kind] * round(share * count)
    kinds = (kinds + ["small"] * count)[:count]
    rng = np.random.default_rng(11)
    rng.shuffle(kinds)
    jobs, fresh, duplicate_of = [], [], {}
    for index, kind in enumerate(kinds):
        job_id = f"g{ctx.seed}-{index}"
        if kind == "duplicate" and fresh:
            original = fresh[rng.integers(len(fresh))]
            payload = dict(original, job_id=job_id)
            duplicate_of[job_id] = original["job_id"]
        else:
            key, scale = MEDIUM if kind == "medium" else SMALL
            payload = {"job_id": job_id, "catalog": key, "scale": scale,
                       "seed": job_seed(ctx.seed, index)}
            fresh.append(payload)
        jobs.append((f"tenant-{index % TENANTS}", payload))
    return jobs, duplicate_of


def run_gateway(ctx: Context) -> None:
    """An open loop at a fixed rate against a ``repro.cli serve``
    subprocess with default admission, on the real disk."""
    count = round(GATEWAY_RATE * ctx.seconds)
    jobs, duplicate_of = gateway_jobs(ctx, count)
    log = OUT / f"{ctx.workload}.server.log"
    setups: list[float] = []

    def start() -> tuple[Path, loadgen.Server]:
        """Start a server on a fresh root; its start-up is a set-up sample."""
        root = ctx.work / f"gw-{len(setups)}"
        tick = time.perf_counter()
        server = loadgen.start_server(root, log, ctx.env, ROOT,
                                      workers=WORKERS)
        setups.append(time.perf_counter() - tick)
        return root, server

    # The last server started before the timed phase serves its load.
    root, server = start()
    for _ in range(0 if ctx.trace else SETUP_REPEATS // 2 - 1):
        server.stop()
        root, server = start()
    try:
        listener = loadgen.EventListener(server)
        conn = server.connect()
        try:
            sent = loadgen.open_loop(conn, jobs, GATEWAY_RATE, ctx.recorder)
            accepted = {s.job_id for s in sent if s.status == 201}
            drained = listener.wait_for(accepted, timeout=60)
            # Everything below is after the timed phase.
            bodies, gets = fetch_results(ctx, conn, sorted(accepted))
            _, _, raw = loadgen.request(conn, "GET", "/v1/jobs")
            records = json.loads(raw)["jobs"]
            _, _, raw = loadgen.request(conn, "GET", "/v1/metrics")
            snapshot = json.loads(raw)["metrics"]
        finally:
            conn.close()
            listener.close()
    finally:
        server.stop()

    finished = listener.finished
    ok_events = ("succeeded", "cached")
    ctx.check("every accepted job finished within 60 s of the last send",
              drained, f"{len(accepted - finished.keys())} never finished")
    by_id = {r["job_id"]: r for r in records}
    for job_id in sorted(accepted):
        state = by_id[job_id]["state"] if job_id in by_id else "missing"
        ctx.check("every job ends succeeded or cached", state in ok_events,
                  f"{job_id}: {state}")
    for job_id, original in sorted(duplicate_of.items()):
        if job_id in bodies and original in bodies:
            got = {k: bodies[job_id]["result"].get(k) for k in RESULT_KEYS}
            want = {k: bodies[original]["result"].get(k) for k in RESULT_KEYS}
            ctx.check("each duplicate equals its original", got == want,
                      f"{job_id} != {original}")
    ours = [by_id[j] for j in sorted(accepted) if j in by_id]
    with ctx.traced(SEQUENCES):
        check_sample(ctx, ours)

    ctx.attempted = len(sent)
    ctx.failed = len(sent) - sum(
        1 for s in sent if s.status == 201 and s.job_id in finished
        and finished[s.job_id].event in ok_events)
    done = [s for s in sent if s.job_id in finished
            and finished[s.job_id].event in ok_events]
    latency = [finished[s.job_id].received - s.due for s in done]
    ctx.details["jobs"] = {"sent": len(sent), "accepted": len(accepted),
                           "completed": len(done)}
    if not ctx.trace:
        for _ in range(SETUP_REPEATS // 2):
            start()[1].stop()
        emit_setup(ctx, setups)
        span = max(finished[s.job_id].received for s in done) - sent[0].due
        ran = [by_id[s.job_id] for s in done
               if by_id[s.job_id]["state"] == "succeeded"]
        cells = sum(r["result"]["m"] * r["result"]["n"] for r in ran)
        ctx.emit("latency_p50_s", pct(latency, 50))
        ctx.emit("latency_p95_s", pct(latency, 95))
        ctx.emit("jobs_per_s", len(done) / span)
        ctx.emit("mcups", cells / span / 1e6)
        ctx.emit("peak_rss_mb", peak_rss_mb())
        return
    for s in done:
        ctx.recorder.add("gateway.job", s.due, finished[s.job_id].received,
                         f"job:{s.job_id}")
    ctx.emit("gateway.post_p50_s", pct([s.seconds for s in sent], 50))
    ctx.emit("gateway.post_p95_s", pct([s.seconds for s in sent], 95))
    ctx.emit("gateway.event_lag_p50_s",
             pct([f.lag for f in finished.values()], 50))
    ctx.emit("gateway.result_get_p50_s", pct(gets, 50))
    ctx.emit("gateway.refused", sum(s.status in (429, 503) for s in sent))
    ctx.emit("loadgen.late_p95_s", pct([s.late for s in sent], 95))
    ctx.emit("loadgen.late_max_s", max(s.late for s in sent))
    ctx.emit("sequences.build_s", np.mean(
        [s.seconds for s in ctx.recorder.named("sequences.build")]))
    service_layers(ctx, ours, read_jobs(ctx, root, ours),
                   batch_counters(snapshot))
    presweep(ctx, [JobSpec.from_json(payload) for _, payload in jobs
                   if payload["catalog"] == SMALL[0]])


def fetch_results(ctx: Context, conn, job_ids: list[str]
                  ) -> tuple[dict[str, dict[str, Any]], list[float]]:
    """GET every result; each body must hash to its ``X-Repro-Digest``."""
    bodies, seconds = {}, []
    for job_id in job_ids:
        span = (ctx.recorder.span("gateway.result_get", f"job:{job_id}")
                if ctx.recorder is not None else contextlib.nullcontext())
        with span:
            tick = time.perf_counter()
            status, headers, body = loadgen.request(
                conn, "GET", f"/v1/jobs/{job_id}/result")
            seconds.append(time.perf_counter() - tick)
        if ctx.tamper == "body" and not bodies:
            body = body.replace(b"best_score", b"best_scorf", 1)
        digest = "sha256:" + hashlib.sha256(body).hexdigest()
        ctx.check("each /result body hashes to its X-Repro-Digest",
                  status == 200 and headers.get("X-Repro-Digest") == digest,
                  f"{job_id}: status {status}")
        if status == 200:
            bodies[job_id] = json.loads(body)
    return bodies, seconds


#: name -> (run, cold set-up probe); the probe runs in a fresh interpreter.
WORKLOADS: dict[str, tuple[Callable[[Context], None],
                           Callable[[Context], None] | None]] = {
    "huge-pair": (lambda ctx: run_pair(ctx, *HUGE),
                  lambda ctx: probe_pair(ctx, *HUGE)),
    "short-hit": (lambda ctx: run_pair(ctx, *SHORT),
                  lambda ctx: probe_pair(ctx, *SHORT)),
    "batch-small": (run_batch, probe_batch),
    "gateway-open": (run_gateway, None),
}
