"""Stage 1's pruned sweep against the unpruned one.

A pruning sweep computes each wide row only over the window that can
still hold an optimal path (``repro.align.rowscan``).  The oracle is
the unpruned ``RowSweeper``, which the conformance suite pins to
``reference``.  ``unpruned`` is the test seam that turns pruning off:
with ``_PRUNE_MIN_WIDTH`` out of reach no row takes the window and
Stage 1 computes no bound.  ``windowed`` lowers the width so that
test-sized pairs take the window; one pair is as wide as the real
constant asks.
"""

from __future__ import annotations

import io
import sys

import numpy as np
import pytest

from repro.align import rowscan
from repro.align.rowscan import RowSweeper
from repro.align.scoring import PAPER_SCHEME
from repro.core import CUDAlign, run_stage1, small_config, stage1
from repro.core.checkpoint import load_checkpoint
from repro.core.stage1 import ROWS_NS, chain_bound
from repro.errors import ConfigError, ReproError
from repro.integrity import codec
from repro.sequences.catalog import get_entry
from repro.sequences.sequence import N_CODE, Sequence
from repro.sequences.synth import MutationProfile, homologous_pair, random_dna
from repro.service.worker import FailureInjector, InjectedFailure
from repro.storage.sra import SpecialLineStore

from tests.conftest import SCHEMES

#: Prunable columns a row needs to take the window in these tests.
WINDOW_WIDTH = 128
NEAR = MutationProfile(substitution=0.004, insertion=0.001, deletion=0.001,
                       indel_mean_len=2.0)


def _near_identical(rng):
    """Near-identical, with an indel longer than the junction snap."""
    s0, s1 = homologous_pair(900, rng, profile=NEAR)
    codes = s1.codes
    insert = rng.integers(0, 4, 2 * stage1.BOUND_SNAP + 8, dtype=np.uint8)
    return s0, Sequence(np.concatenate([codes[:450], insert, codes[450:]]))


def _n_runs(rng):
    s0, s1 = homologous_pair(900, rng, profile=NEAR)
    a, b = s0.codes.copy(), s1.codes.copy()
    a[300:330] = N_CODE
    b[600:625] = N_CODE
    return Sequence(a), Sequence(b)


def _tandem(rng):
    unit = rng.integers(0, 4, 7, dtype=np.uint8)
    repeat = np.tile(unit, 130)
    other = repeat.copy()
    other[rng.integers(0, other.size, 12)] = rng.integers(0, 4, 12)
    return Sequence(repeat), Sequence(np.delete(other, range(400, 414)))


def _unrelated(rng):
    return random_dna(880, rng, "A"), random_dna(920, rng, "B")


PAIRS = {"near-identical": _near_identical, "n-runs": _n_runs,
         "tandem": _tandem, "unrelated": _unrelated}


@pytest.fixture
def windowed(monkeypatch):
    monkeypatch.setattr(rowscan, "_PRUNE_MIN_WIDTH", WINDOW_WIDTH)


def unpruned(monkeypatch):
    monkeypatch.setattr(rowscan, "_PRUNE_MIN_WIDTH", sys.maxsize)


@pytest.fixture(params=sorted(PAIRS))
def pair(request):
    return PAIRS[request.param](np.random.default_rng(len(request.param)))


def _stage1(s0, s1, config):
    sra = SpecialLineStore(config.sra_bytes)
    return run_stage1(s0, s1, config, sra), sra


class TestSpecialRowContract:
    def test_rows_exact_where_optimal_paths_cross(self, pair, windowed,
                                                  monkeypatch):
        """Every special row is at or below the unpruned row, and equal
        to it wherever an optimal path crosses the row: in H (the
        H-join with a reverse sweep reaches the optimum) or in a
        vertical gap (the F-join does)."""
        s0, s1 = pair
        config = small_config(block_rows=32, n=len(s1), sra_rows=8)
        pruned, sra = _stage1(s0, s1, config)
        assert pruned.cells_computed < pruned.cells == len(s0) * len(s1)
        with monkeypatch.context() as patch:
            unpruned(patch)
            plain, plain_sra = _stage1(s0, s1, config)
        assert plain.cells_computed == plain.cells
        assert pruned.best_score == plain.best_score
        assert pruned.end_point == plain.end_point
        assert pruned.special_rows == plain.special_rows
        best, gopen = plain.best_score, config.scheme.gap_open
        crossed = 0
        for r in pruned.special_rows:
            line, ref = sra.load(ROWS_NS, r), plain_sra.load(ROWS_NS, r)
            assert (line.H <= ref.H).all() and (line.G <= ref.G).all()
            rev = RowSweeper(s0.codes[r:][::-1], s1.codes[::-1],
                             config.scheme, local=True).run()
            on_h = (ref.H.astype(np.int64) + rev.H[::-1]) == best
            on_f = (ref.G.astype(np.int64) + rev.F[::-1] + gopen) == best
            np.testing.assert_array_equal(line.H[on_h], ref.H[on_h])
            np.testing.assert_array_equal(line.G[on_f], ref.G[on_f])
            crossed += bool(on_h.any())
        if best > len(s0) // 2:   # the alignment spans the special rows
            assert crossed >= len(pruned.special_rows) - 1

    def test_small_pair_keeps_exact_rows(self, rng):
        """Below the width no row takes the window and no bound is
        computed: every special row equals the unpruned one."""
        s0, s1 = homologous_pair(600, rng, profile=NEAR)
        config = small_config(block_rows=32, n=len(s1), sra_rows=8)
        result, _ = _stage1(s0, s1, config)
        assert result.cells_computed == result.cells


class TestPipelineDifferential:
    def test_bytes_equal_unpruned(self, pair, windowed, monkeypatch):
        s0, s1 = pair
        config = small_config(block_rows=32, n=len(s1), sra_rows=6,
                              max_partition_size=32)
        pruned = CUDAlign(config).run(s0, s1, visualize=False)
        with monkeypatch.context() as patch:
            unpruned(patch)
            plain = CUDAlign(config).run(s0, s1, visualize=False)
        assert pruned.stage1.cells_computed < pruned.stage1.cells
        assert pruned.best_score == plain.best_score
        assert pruned.crosspoint_counts == plain.crosspoint_counts
        assert pruned.binary.encode() == plain.binary.encode()
        assert pruned.stage_modeled_seconds() == plain.stage_modeled_seconds()

    def test_real_width_near_identical(self, monkeypatch):
        """A ~4.2K near-identical catalog pair at the real width: the
        window holds a small share of the matrix, the bytes hold."""
        s0, s1 = get_entry("5227Kx5229K").build(scale=1250, seed=3)
        assert len(s1) > rowscan._PRUNE_MIN_WIDTH
        config = small_config(block_rows=64, n=len(s1), sra_rows=8,
                              max_partition_size=32)
        pruned = CUDAlign(config).run(s0, s1, visualize=False)
        unpruned(monkeypatch)
        plain = CUDAlign(config).run(s0, s1, visualize=False)
        assert pruned.stage1.cells == plain.stage1.cells == len(s0) * len(s1)
        assert pruned.stage1.cells_computed < pruned.stage1.cells / 10
        assert pruned.binary.encode() == plain.binary.encode()


class TestResume:
    def test_resume_after_first_checkpoint(self, tmp_path, windowed):
        """A run stopped right after its first checkpoint resumes to the
        uninterrupted run's special rows and bytes: the checkpoint
        carries the window and the bound."""
        s0, s1 = _near_identical(np.random.default_rng(7))
        config = small_config(block_rows=32, n=len(s1), sra_rows=8,
                              checkpoint_every_rows=96)
        with pytest.raises(InjectedFailure):
            CUDAlign(config, workdir=tmp_path / "crash",
                     observer=FailureInjector(len(s0), 96)).run(s0, s1)
        state = load_checkpoint(tmp_path / "crash" / "stage1.ckpt",
                                len(s0), len(s1))
        assert int(state["i"]) == 96 and "window" in state
        resumed = CUDAlign(config, workdir=tmp_path / "crash").run(s0, s1)
        clean = CUDAlign(config, workdir=tmp_path / "clean").run(s0, s1)
        assert resumed.stage1.resumed_from_row == 96
        assert resumed.binary.encode() == clean.binary.encode()
        assert resumed.stage1.cells_computed == clean.stage1.cells_computed
        stores = [SpecialLineStore(config.sra_bytes, tmp_path / run / "sra",
                                   recover=True)
                  for run in ("crash", "clean")]
        assert stores[0].positions(ROWS_NS) == stores[1].positions(ROWS_NS)
        for r in stores[1].positions(ROWS_NS):
            a, b = (store.load(ROWS_NS, r) for store in stores)
            np.testing.assert_array_equal(a.H, b.H)
            np.testing.assert_array_equal(a.G, b.G)

    def test_version1_checkpoint_resumes_as_full_window(self, tmp_path,
                                                        windowed):
        """A checkpoint in the pre-pruning format (exact full rows, no
        window) resumes with every column live."""
        s0, s1 = _near_identical(np.random.default_rng(8))
        config = small_config(block_rows=32, n=len(s1), sra_rows=8)
        sweep = RowSweeper(s0.codes, s1.codes, config.scheme, local=True,
                           track_best=True).run()
        head = RowSweeper(s0.codes, s1.codes, config.scheme, local=True,
                          track_best=True)
        head.advance(160)
        state = head.state_dict()
        buffer = io.BytesIO()
        np.savez(buffer, version=1, m=len(s0), n=len(s1),
                 **{key: state[key] for key in
                    ("i", "cells", "H", "E", "F", "best", "best_i",
                     "best_j")})
        path = tmp_path / "stage1.ckpt"
        codec.write_artifact(str(path), buffer.getvalue(),
                             codec.KIND_CHECKPOINT)
        resumed = run_stage1(s0, s1, config,
                             SpecialLineStore(config.sra_bytes),
                             checkpoint_path=str(path),
                             checkpoint_every_rows=10_000)
        assert resumed.resumed_from_row == 160
        assert resumed.best_score == sweep.best
        assert (resumed.end_point.i, resumed.end_point.j) == sweep.best_pos
        assert resumed.cells_computed < resumed.cells


class TestBound:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bound_never_exceeds_the_optimum(self, scheme):
        rng = np.random.default_rng(11)
        for build in PAIRS.values():
            s0, s1 = build(rng)
            bound = chain_bound(s0.codes, s1.codes, scheme)
            best = RowSweeper(s0.codes, s1.codes, scheme, local=True,
                              track_best=True).run().best
            assert 0 <= bound <= best

    def test_degenerate_shapes(self):
        rng = np.random.default_rng(12)
        for m, n in ((1, 1), (1, 50), (50, 1), (3, 200), (200, 3)):
            s0, s1 = random_dna(m, rng), random_dna(n, rng)
            bound = chain_bound(s0.codes, s1.codes, PAPER_SCHEME)
            best = RowSweeper(s0.codes, s1.codes, PAPER_SCHEME, local=True,
                              track_best=True).run().best
            assert 0 <= bound <= best

    def test_near_identical_bound_is_close(self):
        s0, s1 = get_entry("5227Kx5229K").build(scale=2048, seed=0)
        bound = chain_bound(s0.codes, s1.codes, PAPER_SCHEME)
        best = RowSweeper(s0.codes, s1.codes, PAPER_SCHEME, local=True,
                          track_best=True).run().best
        assert 0.95 * best <= bound <= best

    def test_best_below_bound_raises(self, monkeypatch, windowed):
        s0, s1 = _near_identical(np.random.default_rng(9))
        config = small_config(block_rows=32, n=len(s1), sra_rows=4)
        best = RowSweeper(s0.codes, s1.codes, config.scheme, local=True,
                          track_best=True).run().best
        monkeypatch.setattr(stage1, "chain_bound", lambda *args: best + 1)
        with pytest.raises(ReproError, match="below its lower bound"):
            _stage1(s0, s1, config)

    def test_pruning_needs_a_local_tracking_sweep(self, rng):
        codes = random_dna(64, rng).codes
        for kwargs in ({"local": False, "track_best": True},
                       {"local": True, "track_best": False},
                       {"local": True, "track_best": True,
                        "tap_columns": np.array([3])},
                       {"local": True, "track_best": True,
                        "watch_value": 4}):
            with pytest.raises(ConfigError):
                RowSweeper(codes, codes, PAPER_SCHEME, prune_bound=10,
                           **kwargs)


class TestWindowedSweep:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_strips_and_schemes(self, scheme, windowed):
        """Any strip schedule and scheme: the pruned best cell is the
        unpruned one, and no cell ends above its unpruned value."""
        rng = np.random.default_rng(13)
        s0, s1 = _near_identical(rng)
        bound = chain_bound(s0.codes, s1.codes, scheme)
        plain = RowSweeper(s0.codes, s1.codes, scheme, local=True,
                           track_best=True).run()
        sweep = RowSweeper(s0.codes, s1.codes, scheme, local=True,
                           track_best=True, prune_bound=bound)
        while not sweep.done:
            sweep.advance(int(rng.integers(1, 40)))
        assert (sweep.best, sweep.best_pos) == (plain.best, plain.best_pos)
        assert sweep.cells_computed < sweep.cells == plain.cells
        assert (sweep.H <= plain.H).all() and (sweep.F <= plain.F).all()

    @pytest.mark.parametrize("gap_in", ["s0", "s1"])
    @pytest.mark.parametrize("scheme", SCHEMES[:2])
    def test_tightest_windows_keep_the_optimum(self, gap_in, scheme,
                                               windowed):
        """After every row, narrow the live range to the columns where an
        optimal path crosses the row — the tightest range a valid live
        test can leave.  The sweep must still reach the optimum at the
        unpruned cell: a long vertical gap needs each row's window to
        start at its first live cell, a long horizontal one needs the
        closed-form extension past the window."""
        s0, s1 = _near_identical(np.random.default_rng(16))
        if gap_in == "s0":
            s0, s1 = s1, s0
        m, n = len(s0), len(s1)
        every = range(1, m + 1)
        plain = RowSweeper(s0.codes, s1.codes, scheme, local=True,
                           track_best=True, save_rows=every).run()
        rev = RowSweeper(s0.codes[::-1], s1.codes[::-1], scheme, local=True,
                         save_rows=every).run()
        best, gopen = plain.best, scheme.gap_open
        sweep = RowSweeper(s0.codes, s1.codes, scheme, local=True,
                           track_best=True, prune_bound=best)
        narrowed = 0
        for r in range(1, m):
            sweep.advance(1)
            h, f = (v.astype(np.int64) for v in plain.saved[r])
            rh, rf = (v[::-1] for v in rev.saved[m - r])
            cols = np.flatnonzero((h + rh == best) | (f + rf + gopen == best))
            if cols.size and sweep._live[0] <= sweep._live[1]:
                narrowed += 1
                sweep._live = (max(sweep._live[0], int(cols[0])),
                               min(sweep._live[1], int(cols[-1])))
        sweep.advance(1)
        assert narrowed > m // 2
        assert (sweep.best, sweep.best_pos) == (plain.best, plain.best_pos)

    def test_state_round_trip_mid_sweep(self, windowed):
        s0, s1 = _near_identical(np.random.default_rng(15))
        bound = chain_bound(s0.codes, s1.codes, PAPER_SCHEME)
        whole = RowSweeper(s0.codes, s1.codes, PAPER_SCHEME, local=True,
                           track_best=True, prune_bound=bound,
                           save_rows=[400, 800]).run()
        head = RowSweeper(s0.codes, s1.codes, PAPER_SCHEME, local=True,
                          track_best=True, prune_bound=bound)
        head.advance(333)
        tail = RowSweeper(s0.codes, s1.codes, PAPER_SCHEME, local=True,
                          track_best=True, prune_bound=0,
                          save_rows=[400, 800])
        tail.load_state(head.state_dict())
        tail.run()
        assert tail.prune_bound == bound
        assert tail.cells_computed == whole.cells_computed
        for row in (400, 800):
            for a, b in zip(tail.saved[row], whole.saved[row]):
                np.testing.assert_array_equal(a, b)
