"""Kernel micro-benchmarks — the performance regression suite.

Times every DP engine on fixed workloads so kernel regressions show up in
`pytest-benchmark` diffs: the linear-space row sweep (Stage 1-3 hot
path), the full-matrix base case (Stage 5), one Myers-Miller split
(Stage 4), the tiled sweep (buses/Z-align), and the batch database scan.
MCUPS per kernel is printed for the throughput picture.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.constants import TYPE_MATCH
from repro.align.full_matrix import global_align, local_align
from repro.align.myers_miller import MMConfig, find_midpoint
from repro.align.rowscan import RowSweeper
from repro.align.scoring import PAPER_SCHEME
from repro.align.tiled import tiled_local_sweep
from repro.baselines import scan_database
from repro.sequences.synth import homologous_pair, random_dna
from repro.telemetry import MetricsRegistry

from benchmarks.conftest import emit

RNG = np.random.default_rng(123)
S0, S1 = homologous_pair(2048, RNG)
RATES: dict[str, float] = {}
#: All kernel numbers flow through the telemetry registry too, so the
#: harness speaks the same metrics dialect as the pipeline; set
#: REPRO_BENCH_METRICS=1 to emit the raw snapshot alongside the table.
METRICS = MetricsRegistry()


def record(benchmark, name: str, cells: int) -> None:
    rate = cells / benchmark.stats.stats.mean / 1e6
    RATES[name] = rate
    slug = "".join(c if c.isalnum() else "_"
                   for c in name.split(" (")[0]).strip("_")
    METRICS.gauge(f"bench.{slug}.mcups").set(rate)
    METRICS.counter("bench.cells").add(cells)
    METRICS.histogram("bench.kernel_seconds").observe(
        benchmark.stats.stats.mean)


def test_kernel_rowscan_local(benchmark):
    def run():
        return RowSweeper(S0.codes, S1.codes, PAPER_SCHEME, local=True,
                          track_best=True).run().best
    benchmark.pedantic(run, rounds=3, iterations=1)
    record(benchmark, "rowscan local (stage 1)", len(S0) * len(S1))


def test_kernel_rowscan_global(benchmark):
    def run():
        return int(RowSweeper(S0.codes, S1.codes, PAPER_SCHEME).run().H[-1])
    benchmark.pedantic(run, rounds=3, iterations=1)
    record(benchmark, "rowscan global (stage 2/3)", len(S0) * len(S1))


def test_kernel_full_matrix(benchmark):
    a, b = S0[:512], S1[:512]

    def run():
        return local_align(a, b, PAPER_SCHEME)[1]
    benchmark.pedantic(run, rounds=3, iterations=1)
    record(benchmark, "full matrix + traceback (stage 5)", 512 * 512)


def test_kernel_mm_split(benchmark):
    [(_, goal)] = global_align([(S0.codes, S1.codes, TYPE_MATCH, TYPE_MATCH)],
                               PAPER_SCHEME)

    def run():
        return find_midpoint(S0.codes, S1.codes, PAPER_SCHEME, goal=goal,
                             config=MMConfig(orthogonal=True, strip=128))
    benchmark.pedantic(run, rounds=3, iterations=1)
    record(benchmark, "MM split, orthogonal (stage 4)",
           len(S0) * len(S1) * 3 // 4)


def test_kernel_tiled(benchmark):
    def run():
        return tiled_local_sweep(S0.codes, S1.codes, PAPER_SCHEME,
                                 band_rows=256, strip_cols=256).best
    benchmark.pedantic(run, rounds=3, iterations=1)
    record(benchmark, "tiled sweep (buses / z-align)", len(S0) * len(S1))


def test_kernel_dbscan(benchmark):
    query = random_dna(256, RNG, "q")
    db = [random_dna(256, RNG, f"s{k}") for k in range(64)]

    def run():
        return scan_database(query, db, PAPER_SCHEME).best.score
    result = benchmark.pedantic(run, rounds=3, iterations=1)
    record(benchmark, "database scan (batch)", 256 * 256 * 64)


def test_kernel_report(benchmark):
    # Runs last (alphabetical ordering is avoided by explicit dependency
    # on RATES being filled by the sweeps above within the same session).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Kernel throughput (MCUPS, this machine)", ""]
    for name, rate in sorted(RATES.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<36} {rate:>8.1f}")
    if RATES:
        assert max(RATES.values()) > 10  # sanity: vectorization is alive
    if os.environ.get("REPRO_BENCH_METRICS"):
        lines += ["", "metrics snapshot:"]
        for name, value in sorted(METRICS.snapshot().items()):
            lines.append(f"  {name}: {value}")
    emit("kernel_throughput", lines)
