"""Pipeline configuration (the paper's execution constants, Section V).

The defaults mirror the GTX 285 configuration: ``alpha = 4``, ``B1 = 240``,
``T1 = 2**6``, ``B2 = B3 = 60``, ``T2 = T3 = 2**7``, SW parameters
+1/-3/-5/-2.  For scaled-down runs the grid is shrunk automatically by the
minimum size requirement; tests and examples typically pass much smaller
grids so special rows exist at their scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.align.scoring import PAPER_SCHEME, ScoringScheme
from repro.gpusim.device import GTX_285, PENTIUM_DUALCORE, DeviceSpec, HostSpec
from repro.gpusim.grid import KernelGrid


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the six-stage pipeline.

    Attributes:
        scheme: affine scoring parameters.
        device: simulated GPU for the modeled timings (Stages 1-3).
        host: simulated CPU for the modeled timings (Stages 4-6).
        grid1 / grid2 / grid3: kernel grids of the GPU stages (B_k, T_k,
            alpha); shrunk at runtime by the minimum size requirement.
        sra_bytes: Special Rows Area budget, |SRA| (Section IV-B).
        sca_bytes: budget for Stage 2's special columns.
        max_partition_size: Stage 4 refines until every partition's largest
            dimension is at most this (paper uses 16 for Table IX).
        stage2_strip / stage3_strip: orthogonal strip widths (columns/rows
            per matching round).
        stage4_orthogonal: goal-based reverse halves in Stage 4.
        stage4_balanced: balanced splitting (halve the largest dimension).
        checkpoint_every_rows: Stage-1 checkpoint interval in matrix rows
            (requires a workdir); None disables checkpointing.
    """

    scheme: ScoringScheme = PAPER_SCHEME
    device: DeviceSpec = GTX_285
    host: HostSpec = PENTIUM_DUALCORE
    grid1: KernelGrid = field(default_factory=lambda: KernelGrid(240, 64, 4))
    grid2: KernelGrid = field(default_factory=lambda: KernelGrid(60, 128, 4))
    grid3: KernelGrid = field(default_factory=lambda: KernelGrid(60, 128, 4))
    sra_bytes: int = 50 * 10**9
    sca_bytes: int = 10 * 10**9
    max_partition_size: int = 16
    stage2_strip: int = 128
    stage3_strip: int = 128
    stage4_orthogonal: bool = True
    stage4_balanced: bool = True
    checkpoint_every_rows: int | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every_rows is not None and self.checkpoint_every_rows < 1:
            raise ConfigError("checkpoint interval must be positive")
        if self.sra_bytes < 0 or self.sca_bytes < 0:
            raise ConfigError("storage budgets must be non-negative")
        if self.max_partition_size < 1:
            raise ConfigError("max_partition_size must be positive")
        if self.stage2_strip < 1 or self.stage3_strip < 1:
            raise ConfigError("strip widths must be positive")

    def with_sra(self, sra_bytes: int) -> "PipelineConfig":
        """Convenience for SRA sweeps (Tables VII/VIII)."""
        return replace(self, sra_bytes=sra_bytes)


def sra_bytes_for_rows(n: int, rows: int) -> int:
    """Budget that holds exactly ``rows`` special rows of an ``n``-column
    matrix (each cell stores H and F, 8 bytes — Section IV-B)."""
    if n <= 0 or rows < 0:
        raise ConfigError("n must be positive and rows non-negative")
    return rows * 8 * (n + 1)


def small_config(block_rows: int = 64, *, n: int = 4096, sra_rows: int = 8,
                 max_partition_size: int = 32, **overrides) -> PipelineConfig:
    """A configuration sized for scaled-down sequences (tests, examples).

    ``block_rows`` is the special-row granularity (``alpha * T``);
    ``sra_rows`` sizes the SRA budget to hold that many special rows of an
    ``n``-column comparison.
    """
    if block_rows < 4 or block_rows % 4:
        raise ConfigError("block_rows must be a positive multiple of 4")
    grid = KernelGrid(blocks=4, threads=block_rows // 4, alpha=4)
    defaults = dict(
        grid1=grid, grid2=grid, grid3=grid,
        sra_bytes=sra_bytes_for_rows(n, sra_rows),
        sca_bytes=sra_bytes_for_rows(n, sra_rows),
        max_partition_size=max_partition_size,
        stage2_strip=32, stage3_strip=32,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)
