"""Tiled DP sweeps with explicit boundary exchange.

The distributed substrate under two systems of this repo:

* the **Z-align baseline** (Boukerche et al. [19]) divides the matrix into
  column strips owned by cluster processors; each wavefront step a
  processor computes one (band x strip) tile and sends its right edge to
  the neighbour — exactly this module's :func:`tile_sweep`;
* the **bus cross-validation** of the CUDAlign grid: the horizontal bus is
  a tile's bottom row (H, E, F), the vertical bus its right edge (H, E),
  and :func:`tiled_local_sweep` proves that the decomposed computation is
  bit-identical to the monolithic kernel.

Each row is :func:`repro.align.rowscan.row_step` with its ``left``
edge seeded: an incoming horizontal-gap value ``E_in`` enters the in-row
scan as a virtual source of value ``E_in + G_open`` at the boundary
column (extending the run costs ``G_ext`` per column; re-deriving the
scan's closed form with that term folds exactly into
``max(X[0], E_in + G_open)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE
from repro.errors import ConfigError
from repro.align.profile import build_profile
from repro.align.rowscan import row_step, zero_row
from repro.align.scoring import ScoringScheme


@dataclass(frozen=True)
class TileEdges:
    """Boundary values entering a tile.

    ``top_*`` cover the tile's columns *including* the left-corner column
    (length w + 1); ``left_*`` cover the tile's rows (length h), i.e. the
    H/E values on the boundary column for each interior row.

    ``left_X`` optionally overrides the in-row scan's H-source seed at
    the boundary column (default: ``left_H``).  A sweep's own column-0
    boundary needs it: the monolithic kernel seeds the scan with the
    *unclamped* ``F(i, 0)`` while exposing ``H(i, 0) = max(F, -inf)`` to
    the diagonal term, and once a forced boundary pushes ``F`` below the
    -inf floor those two values differ.
    """

    top_H: np.ndarray
    top_E: np.ndarray
    top_F: np.ndarray
    left_H: np.ndarray
    left_E: np.ndarray
    left_X: np.ndarray | None = None


@dataclass(frozen=True)
class TileResult:
    """A computed tile: outgoing edges plus local statistics."""

    bottom_H: np.ndarray
    bottom_E: np.ndarray
    bottom_F: np.ndarray
    right_H: np.ndarray
    right_E: np.ndarray
    best: int
    best_pos: tuple[int, int]  # tile-relative (row 1.., col 1..)
    cells: int
    #: First tile cell (row-major, columns 1..w) whose H equals the
    #: watched value, tile-relative — None when no watch was requested
    #: or nothing matched.
    watch_hit: tuple[int, int] | None = None


def zero_edges(h: int, w: int, local: bool = True) -> TileEdges:
    """Boundary for a top-left tile of a local sweep (zero H, -inf gaps)."""
    if h <= 0 or w <= 0:
        raise ConfigError("tile dimensions must be positive")
    fill = SCORE_DTYPE(0) if local else NEG_INF
    return TileEdges(
        top_H=np.full(w + 1, fill, dtype=SCORE_DTYPE),
        top_E=np.full(w + 1, NEG_INF, dtype=SCORE_DTYPE),
        top_F=np.full(w + 1, NEG_INF, dtype=SCORE_DTYPE),
        left_H=np.full(h, fill, dtype=SCORE_DTYPE),
        left_E=np.full(h, NEG_INF, dtype=SCORE_DTYPE),
    )


def tile_sweep(codes0: np.ndarray, codes1: np.ndarray, scheme: ScoringScheme,
               edges: TileEdges, *, local: bool = True,
               track_best: bool = False,
               watch_value: int | None = None) -> TileResult:
    """Compute one tile given its boundary edges.

    ``codes0`` are the tile's rows, ``codes1`` its columns.  Returns the
    outgoing edges (bottom row with H/E/F — the horizontal bus; right
    column with H/E — the vertical bus).  ``watch_value`` records the
    first own cell whose H equals it (the boundary column belongs to the
    left neighbour and is checked by the caller).
    """
    codes0 = np.ascontiguousarray(codes0, dtype=np.uint8)
    codes1 = np.ascontiguousarray(codes1, dtype=np.uint8)
    h, w = codes0.size, codes1.size
    if h == 0 or w == 0:
        raise ConfigError("cannot sweep an empty tile")
    if edges.top_H.size != w + 1 or edges.left_H.size != h:
        raise ConfigError("boundary edge sizes do not match the tile")
    gext = SCORE_DTYPE(scheme.gap_ext)
    gfirst = SCORE_DTYPE(scheme.gap_first)
    gopen = SCORE_DTYPE(scheme.gap_open)
    ext_ramp = np.arange(w + 1, dtype=SCORE_DTYPE) * gext
    egap = gfirst + ext_ramp[:-1]
    zero = zero_row(w + 1, local)
    # Uncached: wavefront tiles slice fresh column ranges that would only
    # churn the shared profile LRU.
    sub_lut = build_profile(scheme, codes1)
    left_X = edges.left_H if edges.left_X is None else edges.left_X

    H = edges.top_H.astype(SCORE_DTYPE, copy=True)
    E = edges.top_E.astype(SCORE_DTYPE, copy=True)
    F = edges.top_F.astype(SCORE_DTYPE, copy=True)
    right_H = np.empty(h, dtype=SCORE_DTYPE)
    right_E = np.empty(h, dtype=SCORE_DTYPE)
    best = 0 if local else int(NEG_INF)
    best_pos = (0, 0)
    watch_hit: tuple[int, int] | None = None
    X = np.empty(w + 1, dtype=SCORE_DTYPE)
    T = np.empty(w + 1, dtype=SCORE_DTYPE)

    for i in range(1, h + 1):
        # Column 0 belongs to the left neighbour: the local zero floor
        # applies only to this tile's own cells — restarts at the
        # boundary column are the neighbour's to take.
        left = (left_X[i - 1], SCORE_DTYPE(edges.left_E[i - 1]),
                edges.left_H[i - 1])
        row_step(H, F, H, E, F, X, T, sub_lut[codes0[i - 1]], gext, gfirst,
                 ext_ramp, egap, zero, left=left, gopen=gopen)
        right_H[i - 1] = H[w]
        right_E[i - 1] = E[w]
        if track_best:
            row_max = int(H[1:].max())
            if row_max > best:
                best = row_max
                best_pos = (i, 1 + int(np.argmax(H[1:])))
        if watch_value is not None and watch_hit is None:
            hits = np.flatnonzero(H[1:] == watch_value)
            if hits.size:
                watch_hit = (i, 1 + int(hits[0]))
    return TileResult(bottom_H=H, bottom_E=E, bottom_F=F,
                      right_H=right_H, right_E=right_E,
                      best=best, best_pos=best_pos, cells=h * w,
                      watch_hit=watch_hit)


@dataclass(frozen=True)
class TiledSweepResult:
    """Outcome of a full tiled local sweep."""

    best: int
    best_pos: tuple[int, int]
    cells: int
    tiles: int
    horizontal_bus_bytes: int
    vertical_bus_bytes: int
    wavefront_steps: int


def tiled_local_sweep(codes0: np.ndarray, codes1: np.ndarray,
                      scheme: ScoringScheme, *, band_rows: int,
                      strip_cols: int) -> TiledSweepResult:
    """Full local SW sweep as a (band x strip) tile wavefront.

    Numerically identical to one monolithic sweep; additionally accounts
    the bus traffic the decomposition exchanges and the wavefront step
    count (tiles on the longest anti-diagonal path).
    """
    codes0 = np.ascontiguousarray(codes0, dtype=np.uint8)
    codes1 = np.ascontiguousarray(codes1, dtype=np.uint8)
    m, n = codes0.size, codes1.size
    if band_rows <= 0 or strip_cols <= 0:
        raise ConfigError("tile dimensions must be positive")
    row_cuts = list(range(0, m, band_rows)) + [m]
    col_cuts = list(range(0, n, strip_cols)) + [n]
    bands = len(row_cuts) - 1
    strips = len(col_cuts) - 1

    best, best_pos = 0, (0, 0)
    cells = 0
    hbus = 0
    vbus = 0
    # Left edges per band, updated as the sweep advances strip by strip.
    left = [(np.zeros(row_cuts[b + 1] - row_cuts[b], dtype=SCORE_DTYPE),
             np.full(row_cuts[b + 1] - row_cuts[b], NEG_INF, dtype=SCORE_DTYPE))
            for b in range(bands)]
    for s in range(strips):
        c0, c1 = col_cuts[s], col_cuts[s + 1]
        w = c1 - c0
        top_H = np.zeros(w + 1, dtype=SCORE_DTYPE)
        top_E = np.full(w + 1, NEG_INF, dtype=SCORE_DTYPE)
        top_F = np.full(w + 1, NEG_INF, dtype=SCORE_DTYPE)
        for b in range(bands):
            r0, r1 = row_cuts[b], row_cuts[b + 1]
            left_H, left_E = left[b]
            edges = TileEdges(top_H, top_E, top_F, left_H, left_E)
            tile = tile_sweep(codes0[r0:r1], codes1[c0:c1], scheme, edges,
                              local=True, track_best=True)
            cells += tile.cells
            hbus += 8 * (w + 1)
            vbus += 8 * (r1 - r0)
            if tile.best > best:
                best = tile.best
                best_pos = (r0 + tile.best_pos[0], c0 + tile.best_pos[1])
            # Corner rule: the next band's top row starts at this band's
            # bottom; the next strip's left edge is this tile's right edge.
            left[b] = (tile.right_H, tile.right_E)
            top_H, top_E, top_F = tile.bottom_H, tile.bottom_E, tile.bottom_F
    return TiledSweepResult(best=best, best_pos=best_pos, cells=cells,
                            tiles=bands * strips,
                            horizontal_bus_bytes=hbus,
                            vertical_bus_bytes=vbus,
                            wavefront_steps=bands + strips - 1)
