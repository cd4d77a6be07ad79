"""Tests for the lane axis (repro.align.batched) and the service
micro-batcher that feeds it.

The conformance suite (tests/test_kernel_backends.py) already holds a
K=1 lane to the bit-identity contract; this module covers what only
multi-lane execution can — ragged buckets, frozen all-padding tails,
mixed global boundary regimes in one batch, bucket planning — plus the
rowscan allocation diet, the peak memory of the full-matrix lane blocks
and the service-level coalescing semantics.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.align import batched, full_matrix, rowscan
from repro.align.batched import plan_buckets, sweep_batched, sweep_lanes
from repro.align.rowscan import RowSweeper
from repro.align.scoring import PAPER_SCHEME
from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import ConfigError
from repro.sequences.synth import random_dna
from repro.service import AlignmentService, BatchConfig, JobSpec, JobState
from repro.telemetry.metrics import MetricsRegistry

from tests.conftest import SCHEMES, assert_sweeps_identical


def _codes(rng, m, n):
    return (random_dna(m, rng, f"r{m}").codes,
            random_dna(n, rng, f"c{n}").codes)


def _twin(codes0, codes1, scheme, **kwargs):
    """One (reference, lane) pair over identical inputs: the reference
    runs the serial kernel, the lane goes through the fused batch."""
    return (RowSweeper(codes0, codes1, scheme, **kwargs),
            RowSweeper(codes0, codes1, scheme, **kwargs))


# ------------------------------------------------------------ sweep_lanes
class TestSweepLanes:
    def test_ragged_bucket_bit_identical(self, rng, scheme):
        """Lanes of wildly different shapes — with best/watch/saves/taps
        options differing per lane — fuse into one batch and land on the
        serial kernel's exact observables."""
        shapes = [(37, 53), (64, 64), (5, 90), (81, 7), (1, 1)]
        refs, lanes = [], []
        for idx, (m, n) in enumerate(shapes):
            kwargs = {"local": True, "track_best": True}
            if idx % 2 == 0:
                kwargs["watch_value"] = scheme.match
            if idx in (1, 2):
                kwargs["save_rows"] = [1, m // 2 or 1, m]
            if idx == 3:
                kwargs["tap_columns"] = np.array([0, n // 2, n])
            ref, lane = _twin(*_codes(rng, m, n), scheme, **kwargs)
            refs.append(ref)
            lanes.append(lane)
        done = sweep_lanes(lanes)
        assert done == sum(m for m, _ in shapes)
        for ref, lane in zip(refs, lanes):
            ref.run()
            assert_sweeps_identical(ref, lane)

    def test_all_padding_tail_rows(self, rng, scheme):
        """A shallow lane finishes early and must freeze at its own
        final row while the deep lane keeps sweeping; chunked advances
        cross the freeze boundary mid-batch.  Every lane carries taps
        (a different count each), so the per-window tap gather and its
        per-lane scatter are checked across the freeze too — the
        pattern of Myers-Miller's orthogonal strips."""
        specs = [(4, 60), (64, 8), (17, 17)]
        taps = [[0, 30, 60], [8], [2, 16]]
        refs, lanes = [], []
        for (m, n), cols in zip(specs, taps):
            ref, lane = _twin(*_codes(rng, m, n), scheme,
                              local=True, track_best=True,
                              tap_columns=np.array(cols))
            refs.append(ref)
            lanes.append(lane)
        while any(lane.i < lane.m for lane in lanes):
            sweep_lanes(lanes, 7)
        for ref, lane in zip(refs, lanes):
            ref.run()
            assert_sweeps_identical(ref, lane)

    def test_k1_degenerate(self, rng):
        for scheme in SCHEMES:
            ref, lane = _twin(*_codes(rng, 23, 31), scheme,
                              local=True, track_best=True)
            assert sweep_lanes([lane]) == 23
            ref.run()
            assert_sweeps_identical(ref, lane)

    def test_mixed_boundary_regimes(self, rng, scheme):
        """One batch may mix every global boundary variant — the regimes
        live entirely in each lane's packed state — but not local and
        global lanes: the zero floor is a per-row branch."""
        variants = [
            {"track_best": True},
            {"start_gap": TYPE_GAP_S0},
            {"start_gap": TYPE_GAP_S1},
            {"start_gap": TYPE_GAP_S0, "forced": True},
            {"start_gap": TYPE_GAP_S1, "forced": True},
        ]
        refs, lanes = [], []
        for idx, kwargs in enumerate(variants):
            ref, lane = _twin(*_codes(rng, 20 + idx, 30 - idx), scheme,
                              **kwargs)
            refs.append(ref)
            lanes.append(lane)
        sweep_lanes(lanes)
        for ref, lane in zip(refs, lanes):
            ref.run()
            assert_sweeps_identical(ref, lane)
        mixed = [RowSweeper(*_codes(rng, 8, 8), scheme, local=True),
                 RowSweeper(*_codes(rng, 8, 8), scheme)]
        with pytest.raises(ConfigError, match="local/global"):
            sweep_lanes(mixed)

    def test_mixed_schemes_rejected(self, rng):
        lanes = [RowSweeper(*_codes(rng, 8, 8), SCHEMES[0], local=True),
                 RowSweeper(*_codes(rng, 8, 8), SCHEMES[1], local=True)]
        with pytest.raises(ConfigError, match="share one scoring scheme"):
            sweep_lanes(lanes)

    def test_degenerate_inputs(self, rng, scheme):
        assert sweep_lanes([]) == 0
        _, lane = _twin(*_codes(rng, 6, 6), scheme, local=True)
        lane.run()
        assert sweep_lanes([lane]) == 0          # nothing left to do
        with pytest.raises(ConfigError, match="non-negative"):
            sweep_lanes([lane], -1)

    def test_plain_rowsweeper_lanes_accepted(self, rng, scheme):
        """sweep_lanes advances plain RowSweeper lanes in place; the
        serial sweeper never notices the lane axis existed."""
        codes0, codes1 = _codes(rng, 12, 18)
        ref = RowSweeper(codes0, codes1, scheme, local=True, track_best=True)
        lane = RowSweeper(codes0, codes1, scheme, local=True, track_best=True)
        sweep_lanes([lane])
        ref.run()
        assert_sweeps_identical(ref, lane)


# ----------------------------------------------------------- plan_buckets
class TestPlanBuckets:
    def test_schemes_never_share_a_bucket(self, rng):
        lanes = [RowSweeper(*_codes(rng, 16, 16), SCHEMES[i % 2],
                            local=i % 3 == 0) for i in range(6)]
        for bucket in plan_buckets(lanes):
            keys = {(lanes[k].scheme, lanes[k].local) for k in bucket}
            assert len(keys) == 1

    def test_max_lanes_cap(self, rng, scheme):
        lanes = [RowSweeper(*_codes(rng, 8, 8), scheme, local=True)
                 for _ in range(10)]
        buckets = plan_buckets(lanes, max_lanes=4)
        assert all(len(b) <= 4 for b in buckets)
        assert sorted(k for b in buckets for k in b) == list(range(10))

    def test_waste_bound_holds_per_bucket(self, rng, scheme):
        shapes = [(512, 512), (8, 8), (8, 8), (8, 8)]
        lanes = [RowSweeper(*_codes(rng, m, n), scheme, local=True)
                 for m, n in shapes]
        max_waste = 0.25
        buckets = plan_buckets(lanes, max_waste=max_waste)
        assert len(buckets) >= 2     # the huge lane cannot absorb the tiny
        for bucket in buckets:
            group = [lanes[k] for k in bucket]
            depth = max(lane.m for lane in group)
            width = max(lane.n for lane in group)
            cells = sum(lane.m * lane.n for lane in group)
            assert 1.0 - cells / (len(group) * depth * width) <= max_waste

    def test_finished_lanes_skipped(self, rng, scheme):
        lanes = [RowSweeper(*_codes(rng, 8, 8), scheme, local=True)
                 for _ in range(3)]
        lanes[1].run()
        buckets = plan_buckets(lanes)
        assert sorted(k for b in buckets for k in b) == [0, 2]

    def test_invalid_parameters(self, rng, scheme):
        lane = RowSweeper(*_codes(rng, 4, 4), scheme, local=True)
        with pytest.raises(ConfigError, match="max_lanes"):
            plan_buckets([lane], max_lanes=0)
        with pytest.raises(ConfigError, match="max_waste"):
            plan_buckets([lane], max_waste=1.0)

    def test_sweep_batched_stats_and_metrics(self, rng, scheme):
        metrics = MetricsRegistry()
        lanes = [RowSweeper(*_codes(rng, 16 + i, 24 - i), scheme,
                                   local=True, track_best=True)
                 for i in range(5)]
        stats = sweep_batched(lanes, metrics=metrics)
        assert stats["lanes"] == 5
        assert stats["buckets"] >= 1
        assert stats["cells"] == sum(lane.m * lane.n for lane in lanes)
        assert stats["padded_cells"] >= stats["cells"]
        assert 0.0 <= stats["padding_waste"] < 1.0
        assert all(lane.i == lane.m for lane in lanes)
        snapshot = metrics.snapshot()
        assert snapshot["kernel.batch.dispatches"] == stats["buckets"]
        assert snapshot["kernel.batch.lanes"] == 5


# -------------------------------------------------- rowscan allocation diet
# At n=65536 one H row is 256 KiB; 32 KiB is the per-row tripwire.
N_WIDE = 65536
TRIPWIRE = 32 * 1024


class TestAllocationDiet:
    def test_shared_query_profile(self, rng, scheme):
        """Lanes over the same columns share one cached LUT object —
        the per-(scheme, query) profile is built once, not per sweeper."""
        codes0a, codes1 = _codes(rng, 16, 64)
        codes0b = random_dna(16, rng, "other").codes
        a = RowSweeper(codes0a, codes1, scheme, local=True)
        b = RowSweeper(codes0b, codes1, scheme, local=True)
        assert a._sub_lut is b._sub_lut

    def test_advance_allocates_no_row_temporaries(self, rng):
        """Regression guard for the `_advance` allocation diet: at
        n=65536 one H row is 256 KiB, so any reintroduced per-row
        temporary allocates at least that much per advance.  The dieted
        loop (preallocated scratch, ``out=`` everywhere) stays under a
        few KiB; 32 KiB is the tripwire.  These local rows take the
        bounded doubling scan and the zero-row floor."""
        sweep = self._wide_sweep(rng, local=True)
        assert not sweep._zero.flags.writeable
        self._assert_advance_allocates_nothing(sweep)

    def test_windowed_advance_allocates_no_row_temporaries(self, rng):
        """The same guard on a pruning sweep's windowed rows.  Rows of a
        period-8 repeat against its own prefix stay live on every
        eighth diagonal, so each window spans nearly the whole row and a
        per-row temporary of the window would trip the wire."""
        unit = random_dna(8, rng, "unit").codes
        codes1 = np.tile(unit, N_WIDE // 8)
        sweep = RowSweeper(codes1[:48], codes1, PAPER_SCHEME, local=True,
                           track_best=True, prune_bound=40)
        sweep.advance(10)
        assert sweep._full_until < sweep.i
        self._assert_advance_allocates_nothing(sweep)
        lo, hi = sweep._live
        assert hi - lo > N_WIDE // 2
        assert sweep.cells_computed < sweep.cells

    def test_global_advance_allocates_no_row_temporaries(self, rng):
        """The same guard on global rows, which take the block scan."""
        sweep = self._wide_sweep(rng, local=False)
        assert sweep.n + 1 >= rowscan._BLOCK_MIN_CELLS
        self._assert_advance_allocates_nothing(sweep)

    @staticmethod
    def _wide_sweep(rng, local):
        codes0 = random_dna(32, rng, "A").codes
        codes1 = random_dna(N_WIDE, rng, "B").codes
        return RowSweeper(codes0, codes1, PAPER_SCHEME,
                          local=local, track_best=local)

    @staticmethod
    def _assert_advance_allocates_nothing(sweep):
        sweep.advance(4)                      # warm the lazy paths
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        sweep.advance(8)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak - base < TRIPWIRE, (
            f"RowSweeper._advance allocated {peak - base} bytes for 8 rows "
            f"at n={sweep.n}; a per-row temporary would cost >= "
            f"{4 * (sweep.n + 1)}")

    def test_lane_rows_allocate_no_temporaries(self, rng, monkeypatch):
        """Each fused row of a global K-lane block (the block scan, run
        over the flattened lanes) allocates nothing; the batch's packed
        state is set up once, outside the rows."""
        n = N_WIDE
        codes1 = random_dna(n, rng, "B").codes
        lanes = [RowSweeper(random_dna(m, rng, "A").codes, codes1,
                            PAPER_SCHEME) for m in (12, 12, 9, 7)]
        assert n + 1 >= rowscan._BLOCK_MIN_CELLS
        real_step = batched.row_step
        growth = []

        def traced_step(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            bound = real_step(*args, **kwargs)
            growth.append(tracemalloc.get_traced_memory()[1] - base)
            return bound

        monkeypatch.setattr(batched, "row_step", traced_step)
        sweep_lanes(lanes, 2)                 # warm the lazy paths
        tracemalloc.start()
        try:
            sweep_lanes(lanes)
        finally:
            tracemalloc.stop()
        assert len(growth) == 2 + 10
        assert max(growth[2:]) < TRIPWIRE, (
            f"a lane row step allocated {max(growth[2:])} bytes at "
            f"K={len(lanes)}, n={n}")

    def test_full_matrix_lanes_hold_one_block(self, rng):
        """``global_align`` traces every block back before it allocates
        the next, so 1,000 Stage-5-sized lanes peak near one block
        budget, not at the sum of every block (about 9 MiB here)."""
        shapes = rng.integers(16, 32, size=(1000, 2))
        problems = [(random_dna(m, rng, "A").codes,
                     random_dna(n, rng, "B").codes,
                     TYPE_MATCH if k % 3 == 0 else TYPE_GAP_S0,
                     TYPE_GAP_S1 if k % 5 == 0 else TYPE_MATCH)
                    for k, (m, n) in enumerate(shapes)]
        budget = full_matrix._LANE_BLOCK_BYTES
        assert sum(full_matrix._block_bytes(m, 1, n)
                   for m, n in shapes) > 8 * budget
        full_matrix.global_align(problems[:8], PAPER_SCHEME)  # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            results = full_matrix.global_align(problems, PAPER_SCHEME)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(results) == len(problems)
        assert peak < 2 * budget, (
            f"global_align peaked at {peak} bytes over {len(problems)} "
            f"lanes; the block budget is {budget}")


# ------------------------------------------------------- service batching
class TestServiceBatching:
    @staticmethod
    def _small_specs(count):
        # 162Kx172K at scale=512 is ~316x336 (~106k cells), under the
        # default 2^18 qualification ceiling.
        return [JobSpec(job_id=f"j{i}", catalog="162Kx172K", scale=512,
                        seed=i, block_rows=64) for i in range(count)]

    def test_grouped_results_match_solo(self, tmp_path):
        solo = AlignmentService(tmp_path / "solo",
                                batching=BatchConfig(max_jobs=1))
        try:
            solo.submit_many(self._small_specs(3))
            solo.run()
        finally:
            solo.close()
        grouped = AlignmentService(tmp_path / "grouped")
        try:
            grouped.submit_many(self._small_specs(3))
            grouped.run()
            metrics = dict(grouped.telemetry.metrics.snapshot())
        finally:
            grouped.close()
        assert metrics["kernel.batch.dispatches"] == 1
        assert metrics["kernel.batch.jobs"] == 3
        assert metrics["kernel.batch.fused_lanes"] == 3
        assert "kernel.batch.dispatches" not in dict(
            solo.telemetry.metrics.snapshot())
        for i in range(3):
            a = solo.queue.get(f"j{i}")
            b = grouped.queue.get(f"j{i}")
            assert a.state == b.state == JobState.SUCCEEDED
            assert a.result["best_score"] == b.result["best_score"]
            assert a.result["alignment_length"] == \
                   b.result["alignment_length"]

    def test_large_jobs_fall_back(self, tmp_path):
        service = AlignmentService(
            tmp_path / "svc", batching=BatchConfig(max_cells=100))
        try:
            service.submit_many(self._small_specs(2))
            service.run()
            metrics = dict(service.telemetry.metrics.snapshot())
        finally:
            service.close()
        assert metrics["kernel.batch.fallback.large"] == 2
        assert "kernel.batch.dispatches" not in metrics

    def test_lone_small_job_falls_back(self, tmp_path):
        service = AlignmentService(tmp_path / "svc")
        try:
            service.submit_many(self._small_specs(1))
            service.run()
            metrics = dict(service.telemetry.metrics.snapshot())
        finally:
            service.close()
        assert "kernel.batch.dispatches" not in metrics
        assert service.queue.get("j0").state == JobState.SUCCEEDED

    def test_cancel_displaces_group_siblings(self, tmp_path):
        """Cancelling one member of a running group kills the shared
        process; siblings are requeued without a ledger charge and
        finish on their own (solo, since a resumed attempt no longer
        qualifies for grouping)."""
        service = AlignmentService(tmp_path / "svc")
        try:
            service.submit_many(self._small_specs(2))
            service.step()                      # dispatches the group
            assert service.queue.get("j0").state == JobState.RUNNING
            assert service.queue.get("j1").state == JobState.RUNNING
            assert service.cancel("j0") is True
            service.run()
            metrics = dict(service.telemetry.metrics.snapshot())
        finally:
            service.close()
        assert service.queue.get("j0").state == JobState.CANCELLED
        assert service.queue.get("j1").state == JobState.SUCCEEDED
        assert metrics["kernel.batch.displaced"] == 1
