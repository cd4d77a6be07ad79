"""End-to-end pipeline tests, including the property-based score invariant."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.align.full_matrix import local_align
from repro.align.scoring import PAPER_SCHEME
from repro.core import CUDAlign, PipelineConfig, small_config
from repro.sequences.sequence import Sequence
from repro.sequences.synth import (
    MutationProfile,
    embedded_core_pair,
    homologous_pair,
    random_dna,
)

from tests.conftest import make_pair


def run_small(s0, s1, **kw):
    config = small_config(block_rows=32, n=len(s1), sra_rows=kw.pop("sra_rows", 4),
                          **kw)
    return CUDAlign(config).run(s0, s1), config


class TestEndToEnd:
    def test_homologous_pair_full_span(self, rng):
        s0, s1 = homologous_pair(
            600, rng, profile=MutationProfile(substitution=0.01,
                                              insertion=0.002, deletion=0.002))
        result, config = run_small(s0, s1)
        _, want = local_align(s0, s1, config.scheme)
        assert result.best_score == want
        # Near-identical genomes: alignment spans almost everything.
        assert result.alignment_length > 0.9 * min(len(s0), len(s1))

    def test_embedded_core_short_hit(self, rng):
        s0, s1 = embedded_core_pair(500, 450, 90, rng)
        result, config = run_small(s0, s1)
        _, want = local_align(s0, s1, config.scheme)
        assert result.best_score == want
        assert result.alignment_length < 0.5 * min(len(s0), len(s1))

    def test_unrelated_inputs(self, rng):
        s0 = random_dna(250, rng, "A")
        s1 = random_dna(260, rng, "B")
        result, config = run_small(s0, s1)
        _, want = local_align(s0, s1, config.scheme)
        assert result.best_score == want

    def test_identical_sequences(self):
        s = Sequence.from_text("ACGT" * 120)
        result, config = run_small(s, s)
        assert result.best_score == 480 * config.scheme.match
        comp = result.composition
        assert comp.mismatches == 0 and comp.gap_opens == 0

    def test_no_alignment_returns_empty(self):
        s0 = Sequence.from_text("A" * 400)
        s1 = Sequence.from_text("T" * 400)
        result, _ = run_small(s0, s1)
        assert result.best_score == 0
        assert result.alignment is None
        assert result.stage2 is None

    def test_composition_consistent(self, rng):
        s0, s1 = make_pair(rng, 400, 380)
        result, config = run_small(s0, s1)
        comp = result.composition
        assert comp.score == result.best_score
        assert comp.length == result.alignment_length

    def test_binary_round_trip_through_result(self, rng):
        s0, s1 = make_pair(rng, 300, 300)
        result, _ = run_small(s0, s1)
        rebuilt = result.binary.reconstruct()
        np.testing.assert_array_equal(rebuilt.ops, result.alignment.ops)

    def test_disk_workdir(self, rng, tmp_path):
        s0, s1 = make_pair(rng, 300, 300)
        config = small_config(block_rows=32, n=len(s1), sra_rows=4)
        result = CUDAlign(config, workdir=tmp_path).run(s0, s1)
        _, want = local_align(s0, s1, config.scheme)
        assert result.best_score == want
        assert (tmp_path / "sra").exists()

    def test_rejects_non_sequences(self):
        with pytest.raises(ConfigError):
            CUDAlign(small_config()).run("ACGT", "ACGT")

    def test_paper_default_config_runs(self, rng):
        # The paper's exact grids/SRA on a scaled input: grids shrink via
        # the minimum size requirement and special rows simply do not fit,
        # but the pipeline must still be exact.
        s0, s1 = make_pair(rng, 400, 400)
        result = CUDAlign(PipelineConfig()).run(s0, s1)
        _, want = local_align(s0, s1, PAPER_SCHEME)
        assert result.best_score == want


class TestConfigSweeps:
    @pytest.mark.parametrize("sra_rows", [0, 1, 2, 8, 32])
    def test_sra_sizes_do_not_change_result(self, rng, sra_rows):
        s0, s1 = make_pair(rng, 350, 330)
        result, config = run_small(s0, s1, sra_rows=sra_rows)
        _, want = local_align(s0, s1, config.scheme)
        assert result.best_score == want
        if result.alignment is not None:
            assert result.alignment.score(s0, s1, config.scheme) == want

    @pytest.mark.parametrize("mps", [4, 16, 64, 1024])
    def test_max_partition_size_sweep(self, rng, mps):
        s0, s1 = make_pair(rng, 300, 300)
        result, config = run_small(s0, s1, max_partition_size=mps)
        _, want = local_align(s0, s1, config.scheme)
        assert result.best_score == want

    def test_ablations_do_not_change_result(self, rng):
        s0, s1 = make_pair(rng, 350, 320)
        base = small_config(block_rows=32, n=len(s1), sra_rows=4)
        scores = set()
        for orth in (True, False):
            for bal in (True, False):
                config = dataclasses.replace(
                    base, stage4_orthogonal=orth, stage4_balanced=bal)
                scores.add(CUDAlign(config).run(s0, s1).best_score)
        assert len(scores) == 1


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), kind=st.integers(0, 2),
           sra_rows=st.integers(0, 6))
    def test_pipeline_score_equals_reference(self, seed, kind, sra_rows):
        """The headline invariant: for arbitrary inputs and SRA budgets the
        pipeline's alignment rescores exactly to the optimal local score."""
        rng = np.random.default_rng(seed)
        if kind == 0:
            s0, s1 = homologous_pair(150 + seed % 100, rng)
        elif kind == 1:
            s0, s1 = embedded_core_pair(160, 140, 40, rng)
        else:
            s0, s1 = random_dna(120, rng, "A"), random_dna(130, rng, "B")
        config = small_config(block_rows=16, n=len(s1), sra_rows=sra_rows,
                              max_partition_size=8)
        result = CUDAlign(config).run(s0, s1, visualize=False)
        _, want = local_align(s0, s1, config.scheme)
        assert result.best_score == want
        if want > 0:
            assert result.alignment.score(s0, s1, config.scheme) == want

    @settings(max_examples=15, deadline=None)
    @given(t0=st.text(alphabet="ACGTN", min_size=40, max_size=120),
           t1=st.text(alphabet="ACGTN", min_size=40, max_size=120))
    def test_pipeline_handles_arbitrary_text(self, t0, t1):
        s0 = Sequence.from_text(t0)
        s1 = Sequence.from_text(t1)
        config = small_config(block_rows=16, n=len(s1), sra_rows=2,
                              max_partition_size=8)
        result = CUDAlign(config).run(s0, s1, visualize=False)
        _, want = local_align(s0, s1, config.scheme)
        assert result.best_score == want


class TestStatistics:
    def test_crosspoint_counts_monotone(self, rng):
        s0, s1 = make_pair(rng, 400, 380)
        result, _ = run_small(s0, s1, sra_rows=6, max_partition_size=8)
        counts = result.crosspoint_counts
        assert counts["L1"] == 1
        assert counts.get("L2", 2) <= counts.get("L3", 10**9)
        assert counts.get("L3", 2) <= counts.get("L4", 10**9)

    def test_stage_times_recorded(self, rng):
        s0, s1 = make_pair(rng, 300, 300)
        result, _ = run_small(s0, s1)
        walls = result.stage_wall_seconds()
        assert set(walls) == {"1", "2", "3", "4", "5", "6"}
        assert walls["1"] > 0
        assert result.modeled_total_seconds > 0

    def test_matrix_cells(self, rng):
        s0, s1 = make_pair(rng, 123, 77)
        result, _ = run_small(s0, s1)
        assert result.matrix_cells == 123 * 77
