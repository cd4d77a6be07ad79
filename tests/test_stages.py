"""Per-stage tests: each stage against the reference ground truth."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import PartitionError
from repro.align import full_matrix, reference
from repro.core import (
    CrosspointChain,
    Crosspoint,
    run_stage1,
    run_stage2,
    run_stage3,
    run_stage4,
    run_stage5,
    run_stage6,
    small_config,
    sra_bytes_for_rows,
)
from repro.align.myers_miller import MMConfig, MMStats, degenerate_alignment
from repro.core.stage1 import ROWS_NS
from repro.core.stage4 import split_partition
from repro.sequences.sequence import Sequence
from repro.sequences.synth import random_dna
from repro.storage.sra import SpecialLineStore

from tests.conftest import make_pair


@pytest.fixture
def pair(rng):
    return make_pair(rng, 300, 280)


def stores(config):
    return (SpecialLineStore(config.sra_bytes),
            SpecialLineStore(config.sca_bytes))


def config_for(pair, sra_rows=4, **kw):
    return small_config(block_rows=32, n=len(pair[1]), sra_rows=sra_rows, **kw)


class TestStage1:
    def test_best_matches_reference(self, pair):
        s0, s1 = pair
        config = config_for(pair)
        sra, _ = stores(config)
        result = run_stage1(s0, s1, config, sra)
        mats = reference.sw_matrices(s0, s1, config.scheme)
        best, _ = reference.best_cell(mats.H)
        assert result.best_score == best
        i, j = result.end_point.i, result.end_point.j
        assert mats.H[i, j] == best

    def test_special_rows_saved_and_correct(self, pair):
        s0, s1 = pair
        config = config_for(pair, sra_rows=5)
        sra, _ = stores(config)
        result = run_stage1(s0, s1, config, sra)
        assert result.special_rows
        assert sra.positions(ROWS_NS) == list(result.special_rows)
        mats = reference.sw_matrices(s0, s1, config.scheme)
        for r in result.special_rows:
            line = sra.load(ROWS_NS, r)
            np.testing.assert_array_equal(line.H, mats.H[r])
            np.testing.assert_array_equal(line.G, mats.F[r])
            assert r % config.grid1.block_rows == 0

    def test_sra_budget_respected(self, pair):
        s0, s1 = pair
        config = config_for(pair, sra_rows=2)
        sra, _ = stores(config)
        result = run_stage1(s0, s1, config, sra)
        assert sra.bytes_used <= config.sra_bytes
        assert result.flushed_bytes == sra.bytes_used

    def test_zero_sra_disables_flush(self, pair):
        s0, s1 = pair
        config = config_for(pair, sra_rows=0)
        sra, _ = stores(config)
        result = run_stage1(s0, s1, config, sra)
        assert result.special_rows == ()
        assert result.flushed_bytes == 0

    def test_cells_and_model(self, pair):
        s0, s1 = pair
        config = config_for(pair)
        sra, _ = stores(config)
        result = run_stage1(s0, s1, config, sra)
        assert result.cells == len(s0) * len(s1)
        assert result.modeled_seconds >= result.modeled_seconds_no_flush
        assert result.mcups_modeled > 0


class TestStage2:
    def run12(self, pair, sra_rows=4):
        s0, s1 = pair
        config = config_for(pair, sra_rows=sra_rows)
        sra, sca = stores(config)
        stage1 = run_stage1(s0, s1, config, sra)
        stage2 = run_stage2(s0, s1, config, sra, sca, stage1)
        return config, sra, sca, stage1, stage2, s0, s1

    def test_chain_valid_and_scores_bracket(self, pair):
        _, _, _, stage1, stage2, _, _ = self.run12(pair)
        chain = CrosspointChain(stage2.crosspoints)
        assert chain.start.score == 0
        assert chain.end.score == stage1.best_score
        assert chain.end == stage1.end_point

    def test_start_point_is_true_local_start(self, pair):
        config, _, _, _, stage2, s0, s1 = self.run12(pair)
        start = stage2.crosspoints[0]
        end = stage2.crosspoints[-1]
        # Global alignment of the spanned rectangle equals the local best.
        got = reference.global_score(s0[start.i:end.i], s1[start.j:end.j],
                                     config.scheme)
        assert got == end.score

    def test_crosspoints_lie_on_special_rows(self, pair):
        _, sra, _, _, stage2, _, _ = self.run12(pair)
        rows = set(sra.positions(ROWS_NS))
        for point in stage2.crosspoints[1:-1]:
            assert point.i in rows

    def test_crosspoint_scores_are_forward_values(self, pair):
        config, _, _, _, stage2, s0, s1 = self.run12(pair)
        mats = reference.sw_matrices(s0, s1, config.scheme)
        for point in stage2.crosspoints[1:-1]:
            want = (mats.H if point.type == TYPE_MATCH else mats.F)[point.i, point.j]
            assert point.score == want

    def test_partition_scores_verified_by_reference(self, pair):
        config, _, _, _, stage2, s0, s1 = self.run12(pair)
        for p in CrosspointChain(stage2.crosspoints).partitions():
            if p.degenerate:
                continue
            want = reference.global_score(
                s0[p.start.i:p.end.i], s1[p.start.j:p.end.j], config.scheme,
                start_gap=p.start.type, end_gap=p.end.type)
            assert want == p.score

    def test_saved_columns_cover_partitions(self, pair):
        _, _, sca, _, stage2, _, _ = self.run12(pair, sra_rows=6)
        for band in stage2.bands:
            for j in band.column_positions:
                assert band.lo.j < j < band.hi.j
                line = sca.load(band.namespace, j)
                assert line.lo <= band.lo.i and line.hi >= band.hi.i

    def test_orthogonal_execution_skips_area(self, pair):
        # Stage 2's processed area must be far below the full matrix when
        # special rows exist (Section IV-C: ~flush interval x n).
        _, _, _, stage1, stage2, s0, s1 = self.run12(pair, sra_rows=8)
        assert stage2.cells < stage1.cells

    def test_no_special_rows_single_band(self, pair):
        _, _, _, _, stage2, _, _ = self.run12(pair, sra_rows=0)
        assert len(stage2.crosspoints) == 2  # start and end only
        assert stage2.bands[0].column_positions == ()

    def test_zero_sca_budget_saves_no_columns(self, pair):
        import dataclasses
        s0, s1 = pair
        config = dataclasses.replace(config_for(pair, sra_rows=5),
                                     sca_bytes=0)
        sra, sca = stores(config)
        stage1 = run_stage1(s0, s1, config, sra)
        stage2 = run_stage2(s0, s1, config, sra, sca, stage1)
        assert all(b.column_positions == () for b in stage2.bands)
        # The pipeline then skips Stage 3 entirely.
        from repro.core import CUDAlign
        result = CUDAlign(config).run(s0, s1, visualize=False)
        assert result.stage3 is None
        assert result.best_score == stage1.best_score


class TestStage3:
    def run123(self, pair, sra_rows=6):
        s0, s1 = pair
        config = config_for(pair, sra_rows=sra_rows)
        sra, sca = stores(config)
        stage1 = run_stage1(s0, s1, config, sra)
        stage2 = run_stage2(s0, s1, config, sra, sca, stage1)
        stage3 = run_stage3(s0, s1, config, sca, stage2)
        return config, stage1, stage2, stage3, s0, s1

    def test_chain_refined_and_valid(self, pair):
        _, stage1, stage2, stage3, _, _ = self.run123(pair)
        chain = CrosspointChain(stage3.crosspoints)
        assert len(chain) >= len(stage2.crosspoints)
        assert chain.end.score == stage1.best_score

    def test_new_crosspoints_on_special_columns(self, pair):
        _, _, stage2, stage3, _, _ = self.run123(pair)
        stage2_keys = {(p.i, p.j) for p in stage2.crosspoints}
        columns = {j for band in stage2.bands for j in band.column_positions}
        new = [p for p in stage3.crosspoints
               if (p.i, p.j) not in stage2_keys]
        assert all(p.j in columns for p in new)

    def test_partition_scores_still_consistent(self, pair):
        config, _, _, stage3, s0, s1 = self.run123(pair)
        for p in CrosspointChain(stage3.crosspoints).partitions():
            if p.degenerate:
                continue
            want = reference.global_score(
                s0[p.start.i:p.end.i], s1[p.start.j:p.end.j], config.scheme,
                start_gap=p.start.type, end_gap=p.end.type)
            assert want == p.score

    def test_columns_released_after_consumption(self, pair):
        s0, s1 = pair
        config = config_for(pair, sra_rows=6)
        sra, sca = stores(config)
        stage1 = run_stage1(s0, s1, config, sra)
        stage2 = run_stage2(s0, s1, config, sra, sca, stage1)
        assert sca.bytes_used > 0
        run_stage3(s0, s1, config, sca, stage2)
        assert sca.bytes_used == 0


class TestStage4:
    def chain_for(self, pair, config):
        s0, s1 = pair
        sra, sca = stores(config)
        stage1 = run_stage1(s0, s1, config, sra)
        stage2 = run_stage2(s0, s1, config, sra, sca, stage1)
        stage3 = run_stage3(s0, s1, config, sca, stage2)
        return CrosspointChain(stage3.crosspoints)

    def test_all_partitions_fit_after(self, pair):
        s0, s1 = pair
        config = config_for(pair, max_partition_size=12)
        chain = self.chain_for(pair, config)
        result = run_stage4(s0, s1, config, chain)
        out = CrosspointChain(result.crosspoints)
        for p in out.partitions():
            assert p.degenerate or p.max_dim <= 12

    def test_iterations_halve_dimensions(self, pair):
        s0, s1 = pair
        config = config_for(pair, max_partition_size=8)
        chain = self.chain_for(pair, config)
        result = run_stage4(s0, s1, config, chain)
        dims = [max(it.h_max, it.w_max) for it in result.iterations]
        assert all(b <= a for a, b in zip(dims, dims[1:]))
        counts = [it.crosspoints for it in result.iterations]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        # Each iteration at most doubles the crosspoints (Section IV-E).
        assert all(b <= 2 * a for a, b in zip(counts, counts[1:]))

    def test_balanced_needs_fewer_iterations_on_skewed(self, rng):
        import dataclasses
        # A skewed comparison: tall-narrow partitions dominate.
        s0, s1 = make_pair(rng, 600, 80)
        config = config_for((s0, s1), sra_rows=0, max_partition_size=10)
        chain = self.chain_for((s0, s1), config)
        bal = run_stage4(s0, s1, config, chain)
        unbal = run_stage4(
            s0, s1, dataclasses.replace(config, stage4_balanced=False), chain)
        assert len(bal.iterations) <= len(unbal.iterations)
        final_bal = CrosspointChain(bal.crosspoints)
        final_unbal = CrosspointChain(unbal.crosspoints)
        assert final_bal.end.score == final_unbal.end.score

    def test_orthogonal_same_chain_scores(self, pair):
        import dataclasses
        s0, s1 = pair
        config = config_for(pair, max_partition_size=10)
        chain = self.chain_for(pair, config)
        orth = run_stage4(s0, s1, config, chain)
        plain = run_stage4(
            s0, s1, dataclasses.replace(config, stage4_orthogonal=False), chain)
        assert CrosspointChain(orth.crosspoints).end.score == \
            CrosspointChain(plain.crosspoints).end.score
        # Orthogonal execution processes fewer cells (Table IX).
        assert orth.cells < plain.cells

    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_fused_rounds_equal_split_partition_loop(self, pair, orthogonal):
        """Each round's splits run as one lane batch; the chain and the
        per-round cell counts must equal one split_partition per
        oversized partition."""
        import dataclasses
        s0, s1 = pair
        config = dataclasses.replace(config_for(pair, max_partition_size=10),
                                     stage4_orthogonal=orthogonal)
        chain = self.chain_for(pair, config)
        result = run_stage4(s0, s1, config, chain)
        mm_config = MMConfig(orthogonal=orthogonal, strip=10)
        cells = []
        while True:
            todo = [(k, p) for k, p in enumerate(chain.partitions())
                    if not p.degenerate and p.max_dim > 10]
            if not todo:
                break
            stats = MMStats()
            points = list(chain.points)
            for k, p in reversed(todo):
                points.insert(k + 1, split_partition(s0, s1, p, config,
                                                     mm_config, stats))
            cells.append(stats.cells)
            chain = CrosspointChain(points)
        assert len(cells) > 1
        assert result.crosspoints == chain.points
        assert [it.cells for it in result.iterations] == cells


class TestStage5And6:
    def full_chain(self, pair, config):
        s0, s1 = pair
        sra, sca = stores(config)
        stage1 = run_stage1(s0, s1, config, sra)
        stage2 = run_stage2(s0, s1, config, sra, sca, stage1)
        stage3 = run_stage3(s0, s1, config, sca, stage2)
        chain = CrosspointChain(stage3.crosspoints)
        stage4 = run_stage4(s0, s1, config, chain)
        return stage1, CrosspointChain(stage4.crosspoints)

    def test_alignment_matches_best_score(self, pair):
        s0, s1 = pair
        config = config_for(pair, max_partition_size=16)
        stage1, chain = self.full_chain(pair, config)
        result = run_stage5(s0, s1, config, chain)
        assert result.alignment.score(s0, s1, config.scheme) == stage1.best_score
        assert result.partitions_aligned == len(chain) - 1

    def test_rejects_oversized_partitions(self, pair):
        s0, s1 = pair
        config = config_for(pair, max_partition_size=16)
        chain = CrosspointChain([
            Crosspoint(0, 0, 0), Crosspoint(100, 100, 50)])
        with pytest.raises(PartitionError, match="oversized"):
            run_stage5(s0, s1, config, chain)

    @staticmethod
    def hand_chain(rng):
        """A chain cut from an optimal global path with one horizontal and
        one vertical 6-gap run, so that it interleaves ordinary
        partitions, 1-row and 1-column partitions (one diagonal plus 3
        gap columns) and degenerate gap runs (3 gap columns each)."""
        core = random_dna(60, rng, "core").codes
        extra = random_dna(12, rng, "extra").codes
        s0 = Sequence(np.concatenate([core[:40], extra[:6], core[40:]]))
        s1 = Sequence(np.concatenate([core[:20], extra[6:], core[20:]]))
        scheme = small_config().scheme
        mats = reference.global_matrices(s0, s1, scheme)
        path = reference.global_align(s0, s1, scheme)
        ops = path.ops
        h = int(np.argmax(ops == TYPE_GAP_S0))
        v = int(np.argmax(ops == TYPE_GAP_S1))
        assert (ops[h:h + 6] == TYPE_GAP_S0).all() and ops[h + 6] == TYPE_MATCH
        assert (ops[v:v + 6] == TYPE_GAP_S1).all() and ops[v + 6] == TYPE_MATCH
        ii, jj = path._column_indices()
        points = [Crosspoint(0, 0, 0)]
        for c in (10, h - 1, h + 3, h + 6, v - 1, v + 3, v + 6):
            i, j = int(ii[c - 1]), int(jj[c - 1])
            # Inside a gap run the crosspoint is typed by the run and
            # scored from its gap matrix; elsewhere it is an H cell.
            kind = int(ops[c - 1]) if ops[c] == ops[c - 1] else TYPE_MATCH
            score = int((mats.H, mats.E, mats.F)[kind][i, j])
            points.append(Crosspoint(i, j, score, kind))
        m, n = len(s0), len(s1)
        points.append(Crosspoint(m, n, int(mats.H[m, n])))
        chain = CrosspointChain(points)
        parts = chain.partitions()
        assert [p.degenerate for p in parts] == [False, False, False, True,
                                                 False, False, True, False]
        assert (parts[2].height, parts[2].width) == (1, 4)
        assert (parts[5].height, parts[5].width) == (4, 1)
        return s0, s1, chain

    def test_hand_chain_equals_one_call_per_partition(self, rng):
        """One batched call over an interleaved chain gives exactly the
        alignment of one ``global_align`` call per partition, with the
        degenerate gap runs in chain order."""
        s0, s1, chain = self.hand_chain(rng)
        config = small_config(n=len(s1))
        pieces = []
        for p in chain.partitions():
            if p.degenerate:
                path = degenerate_alignment(p.height, p.width)
            else:
                [(path, score)] = full_matrix.global_align(
                    [(s0.codes[p.start.i:p.end.i], s1.codes[p.start.j:p.end.j],
                      p.start.type, p.end.type)], config.scheme)
                assert score == p.score
            pieces.append(path.offset(p.start.i, p.start.j))
        want = np.concatenate([piece.ops for piece in pieces])
        result = run_stage5(s0, s1, config, chain)
        assert result.alignment.start == (0, 0)
        np.testing.assert_array_equal(result.alignment.ops, want)
        assert result.cells == sum(p.area for p in chain.partitions())

    def test_fabricated_score_names_its_partition(self, rng):
        s0, s1, chain = self.hand_chain(rng)
        points = list(chain.points)
        bad = points[3]               # ends the 1-row partition
        points[3] = Crosspoint(bad.i, bad.j, bad.score + 1, bad.type)
        with pytest.raises(PartitionError, match=re.escape(
                f"partition {points[2]} -> {points[3]} aligned to")):
            run_stage5(s0, s1, small_config(n=len(s1)),
                       CrosspointChain(points))

    def test_stage6_round_trip(self, pair):
        s0, s1 = pair
        config = config_for(pair, max_partition_size=16)
        _, chain = self.full_chain(pair, config)
        stage5 = run_stage5(s0, s1, config, chain)
        stage6 = run_stage6(s0, s1, config, stage5.binary)
        np.testing.assert_array_equal(stage6.alignment.ops, stage5.alignment.ops)
        assert stage6.alignment.start == stage5.alignment.start
        assert "Alignment of" in stage6.text
        assert "*" in stage6.dotplot
        assert stage6.compression_ratio > 1
