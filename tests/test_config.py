"""PipelineConfig validation and helpers."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigError, ScoringError
from repro.align.scoring import PAPER_SCHEME, ScoringScheme
from repro.core.config import (
    PipelineConfig,
    small_config,
    sra_bytes_for_rows,
)
from repro.gpusim import GTX_285, KernelGrid


class TestPipelineConfig:
    def test_paper_defaults(self):
        config = PipelineConfig()
        assert config.scheme == PAPER_SCHEME
        assert config.grid1.blocks == 240 and config.grid1.threads == 64
        assert config.grid2.blocks == 60 and config.grid2.threads == 128
        assert config.grid1.block_rows == 256  # alpha * T = 4 * 64
        assert config.sra_bytes == 50 * 10**9
        assert config.max_partition_size == 16
        assert config.device is GTX_285

    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(sra_bytes=-1)
        with pytest.raises(ConfigError):
            PipelineConfig(max_partition_size=0)
        with pytest.raises(ConfigError):
            PipelineConfig(checkpoint_every_rows=0)
        with pytest.raises(ConfigError):
            PipelineConfig(stage2_strip=0)

    def test_with_sra(self):
        config = PipelineConfig().with_sra(10**9)
        assert config.sra_bytes == 10**9
        assert config.grid1 == PipelineConfig().grid1

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PipelineConfig().sra_bytes = 1


class TestSmallConfig:
    def test_block_rows_respected(self):
        config = small_config(block_rows=64, n=1000, sra_rows=3)
        assert config.grid1.block_rows == 64
        assert config.sra_bytes == 3 * 8 * 1001

    def test_invalid_block_rows(self):
        with pytest.raises(ConfigError):
            small_config(block_rows=3)
        with pytest.raises(ConfigError):
            small_config(block_rows=30)

    def test_overrides_pass_through(self):
        config = small_config(block_rows=32, stage3_strip=5,
                              scheme=ScoringScheme(2, -1, 4, 2))
        assert config.stage3_strip == 5
        assert config.scheme.match == 2


class TestSraBytesForRows:
    def test_exact_capacity(self):
        assert sra_bytes_for_rows(100, 4) == 4 * 8 * 101

    def test_validation(self):
        with pytest.raises(ConfigError):
            sra_bytes_for_rows(0, 1)
        with pytest.raises(ConfigError):
            sra_bytes_for_rows(10, -1)


class TestScoringValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ScoringError):
            ScoringScheme(match=0)
        with pytest.raises(ScoringError):
            ScoringScheme(mismatch=1)
        with pytest.raises(ScoringError):
            ScoringScheme(gap_ext=0)
        with pytest.raises(ScoringError):
            ScoringScheme(gap_first=1, gap_ext=2)

    def test_gap_cost(self):
        assert PAPER_SCHEME.gap_cost(1) == 5
        assert PAPER_SCHEME.gap_cost(4) == 5 + 3 * 2
        with pytest.raises(ScoringError):
            PAPER_SCHEME.gap_cost(0)

    def test_gap_open(self):
        assert PAPER_SCHEME.gap_open == 3


class TestKernelGridHelpers:
    def test_shrink_to_keeps_threads(self):
        grid = KernelGrid(60, 128, 4)
        small = grid.shrink_to(1000, GTX_285)
        assert small.threads == 128 and small.alpha == 4
        assert small.blocks < 60
        assert small.minimum_width <= 1024  # closest satisfiable
