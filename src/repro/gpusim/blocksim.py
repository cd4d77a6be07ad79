"""Block-level execution of the CUDAlign kernel schedule (Section III-C).

While the pipeline's stages use the monolithic vectorized kernel for
speed, this module *executes* a sweep exactly as the GPU grid would, at
block granularity:

* the matrix is a grid of R block rows (``alpha * T`` matrix rows tall)
  by B column segments (one per block);
* on external diagonal ``d``, block ``k`` processes the tile
  ``(row = d - k, segment = k)`` — the cells-delegation schedule, under
  which the wavefront needs exactly ``R + B - 1`` diagonals and stays
  fully occupied except while filling and draining;
* each tile consumes the *horizontal bus* (the H/E/F bottom row of the
  block above) and the *vertical bus* (the H/E right edge of the block to
  its left), and emits both for its neighbours;
* inside a tile, the first T cells of each thread stripe belong to the
  *short phase*, the rest to the optimized *long phase*; the phase
  division's minimum size requirement ``n >= 2BT`` is enforced.

Every numeric value flows through :func:`repro.align.tiled.tile_sweep`,
so the simulation is bit-identical to the monolithic kernel (asserted in
tests); on top of the numbers it records the schedule's observables:
per-diagonal occupancy, bus traffic, phase split and special-row flushes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE, SPECIAL_CELL_BYTES
from repro.errors import ConfigError
from repro.align.scoring import ScoringScheme
from repro.align.tiled import TileEdges, tile_sweep
from repro.gpusim.device import DeviceSpec
from repro.gpusim.grid import KernelGrid
from repro.sequences.sequence import Sequence
from repro.storage.sra import special_row_positions


@dataclass
class BlockSimResult:
    """Everything a block-scheduled Stage-1 sweep observes."""

    best: int
    best_pos: tuple[int, int]
    cells: int
    external_diagonals: int
    grid_rows: int
    grid_cols: int
    occupancy: list[int] = field(default_factory=list)
    horizontal_bus_bytes: int = 0
    vertical_bus_bytes: int = 0
    short_phase_cells: int = 0
    long_phase_cells: int = 0
    special_rows: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    pruned_tiles: int = 0
    total_tiles: int = 0

    @property
    def mean_occupancy(self) -> float:
        """Average active blocks per external diagonal; cells delegation
        keeps this near B except during fill and drain."""
        return sum(self.occupancy) / len(self.occupancy)

    @property
    def pruned_fraction(self) -> float:
        """Share of tiles skipped by block pruning (0 when disabled)."""
        return self.pruned_tiles / max(1, self.total_tiles)


def _fresh_bus(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.zeros(n + 1, dtype=SCORE_DTYPE),
            np.full(n + 1, NEG_INF, dtype=SCORE_DTYPE),
            np.full(n + 1, NEG_INF, dtype=SCORE_DTYPE))


def simulate_stage1(s0: Sequence, s1: Sequence, scheme: ScoringScheme,
                    grid: KernelGrid, device: DeviceSpec,
                    sra_bytes: int = 0, prune: bool = False) -> BlockSimResult:
    """Run a local SW sweep on the block schedule.

    Returns the same best score/position as the monolithic kernel plus
    the schedule statistics.  ``sra_bytes`` enables special-row flushing
    at the Section IV-B interval; flushed rows are assembled from the
    horizontal-bus segments exactly as the paper describes ("the bus
    contains data from different rows ... many iterations of external
    diagonals may be executed until a full special row is flushed").

    ``prune`` enables *block pruning* — the optimization the paper's
    conclusion gestures at and the CUDAlign lineage shipped next (Sandes &
    de Melo, CUDAlign 3.0): a tile is skipped when even its most
    optimistic continuation cannot beat the best score found so far,

        ub = max(boundary H, 0) + match * min(m - r0, n - c0) <= best.

    Pruned tiles emit the conservative boundary (H = 0, gaps = -inf):
    every real H is >= 0 in a local sweep, so downstream values are only
    ever *under*-estimated and the dominated paths stay dominated — the
    final best score is provably unchanged (and asserted in tests).
    The model does not flush special rows while it prunes (a pruned tile
    would leave its rows incomplete).  The pipeline's own Stage 1 prunes
    cells and still flushes full-width rows, whose dead cells it fills
    (:mod:`repro.core.stage1`).
    """
    m, n = len(s0), len(s1)
    grid = grid.shrink_to(n, device)
    if n < grid.minimum_width:
        raise ConfigError(
            f"minimum size requirement violated even after shrinking: "
            f"n={n} < 2BT={grid.minimum_width}")
    if prune and sra_bytes:
        raise ConfigError("block pruning cannot flush special rows "
                          "(pruned segments would leave rows incomplete)")
    rows_per_block = grid.block_rows
    R = math.ceil(m / rows_per_block)
    B = grid.blocks
    seg = math.ceil(n / B)
    col_cuts = [min(n, k * seg) for k in range(B + 1)]
    row_cuts = [min(m, r * rows_per_block) for r in range(R + 1)]
    flush_rows = set(special_row_positions(m, n, rows_per_block, sra_bytes))

    result = BlockSimResult(best=0, best_pos=(0, 0), cells=0,
                            external_diagonals=R + B - 1,
                            grid_rows=R, grid_cols=B)

    # Horizontal buses: the bottom (H, E, F) row of each block row, filled
    # segment by segment as its tiles complete.  Vertical buses: the right
    # (H, E) edge of the last tile computed in each block row.
    zero_bus = _fresh_bus(n)
    buses: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    right_edges: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    for d in range(R + B - 1):
        active = 0
        for k in range(B):
            r = d - k
            if not 0 <= r < R:
                continue
            r0, r1 = row_cuts[r], row_cuts[r + 1]
            c0, c1 = col_cuts[k], col_cuts[k + 1]
            if r0 >= r1 or c0 >= c1:
                continue
            h, w = r1 - r0, c1 - c0
            if k == 0:
                buses[r] = _fresh_bus(n)
                right_edges[r] = (np.zeros(h, dtype=SCORE_DTYPE),
                                  np.full(h, NEG_INF, dtype=SCORE_DTYPE))
            top_H, top_E, top_F = buses[r - 1] if r > 0 else zero_bus
            left_H, left_E = right_edges[r]
            result.total_tiles += 1
            if prune:
                boundary_max = max(int(top_H[c0:c1 + 1].max()),
                                   int(left_H.max()), 0)
                upper_bound = boundary_max + scheme.match * min(m - r0, n - c0)
                if upper_bound <= result.best:
                    # Dominated: emit the conservative boundary and skip.
                    result.pruned_tiles += 1
                    out_H, out_E, out_F = buses[r]
                    lo = c0 if k == 0 else c0 + 1
                    out_H[lo:c1 + 1] = 0
                    out_E[lo:c1 + 1] = NEG_INF
                    out_F[lo:c1 + 1] = NEG_INF
                    right_edges[r] = (np.zeros(h, dtype=SCORE_DTYPE),
                                      np.full(h, NEG_INF, dtype=SCORE_DTYPE))
                    continue
            active += 1
            tile = tile_sweep(
                s0.codes[r0:r1], s1.codes[c0:c1], scheme,
                TileEdges(top_H=top_H[c0:c1 + 1], top_E=top_E[c0:c1 + 1],
                          top_F=top_F[c0:c1 + 1], left_H=left_H,
                          left_E=left_E),
                local=True, track_best=True)
            out_H, out_E, out_F = buses[r]
            # Column c0 is the shared corner: for k > 0 it belongs to the
            # left neighbour's segment (whose F value is authoritative —
            # the tile pins its own F[0] to -inf as an unread slot).
            lo = c0 if k == 0 else c0 + 1
            out_H[lo:c1 + 1] = tile.bottom_H[lo - c0:]
            out_E[lo:c1 + 1] = tile.bottom_E[lo - c0:]
            out_F[lo:c1 + 1] = tile.bottom_F[lo - c0:]
            right_edges[r] = (tile.right_H, tile.right_E)

            result.cells += tile.cells
            result.horizontal_bus_bytes += SPECIAL_CELL_BYTES * (w + 1)
            result.vertical_bus_bytes += SPECIAL_CELL_BYTES * h
            short = min(w, grid.threads) * h
            result.short_phase_cells += short
            result.long_phase_cells += tile.cells - short
            if tile.best > result.best:
                result.best = tile.best
                result.best_pos = (r0 + tile.best_pos[0],
                                   c0 + tile.best_pos[1])
            # The last block of the row completes the special row.
            if k == B - 1 and r1 in flush_rows:
                out_F0 = out_F.copy()
                out_F0[0] = NEG_INF
                result.special_rows[r1] = (out_H.copy(), out_F0)
        result.occupancy.append(active)
        # A block row's bus is consumed once the row below has passed its
        # last segment; retire it to keep memory at O(B) buses.
        retired = [r for r in buses if r < d - B]
        for r in retired:
            del buses[r]
            right_edges.pop(r, None)
    return result
