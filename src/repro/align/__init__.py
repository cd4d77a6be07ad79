"""Alignment engine family: scoring, reference DP, vectorized kernels,
full-matrix traceback, Myers-Miller linear-space alignment."""

from repro.align.scoring import PAPER_SCHEME, ScoringScheme
from repro.align.alignment import Alignment, Composition, GapRun
from repro.align.rowscan import RowSweeper, row_step
from repro.align import reference
from repro.align.full_matrix import dp_matrices, global_align, local_align
from repro.align.myers_miller import (MMConfig, MMStats, find_midpoint,
                                      find_midpoints, mm_align, mm_score)
from repro.align.semiglobal import SemiGlobalResult, semiglobal_align, semiglobal_score
from repro.align.tiled import TileEdges, TileResult, tile_sweep, tiled_local_sweep

__all__ = [
    "PAPER_SCHEME", "ScoringScheme",
    "Alignment", "Composition", "GapRun",
    "RowSweeper", "row_step", "reference",
    "dp_matrices", "global_align", "local_align",
    "MMConfig", "MMStats", "find_midpoint", "find_midpoints", "mm_align",
    "mm_score",
    "SemiGlobalResult", "semiglobal_align", "semiglobal_score",
    "TileEdges", "TileResult", "tile_sweep", "tiled_local_sweep",
]
