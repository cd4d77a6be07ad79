"""Stage 2 — partial traceback (Section IV-C).

From the end point found in Stage 1, a *reverse* sweep walks back toward
the start of the optimal alignment, band by band (one band per special
row).  Each band applies the paper's two optimizations:

* **Goal-based matching** — the score the optimal path must reach at the
  next special row is known (the *goal*), so matching stops at the first
  column where ``H_f + H_r == goal`` (H-join) or ``F_f + F_r + G_open ==
  goal`` (a vertical gap run crossing the row);
* **Orthogonal execution** — the band is processed in *column strips from
  the anchor leftward* (a row sweep of the transposed problem), matching
  after every strip.  Columns left of the matched crosspoint are never
  computed, which is what makes Stage 2's processed area ~flush-interval
  x n instead of m x n.

While sweeping, every band saves *special columns* (H and E values of the
reverse DP) for Stage 3, and watches for the alignment's start point: a
cell whose reverse value equals the whole remaining goal (its forward
score is necessarily 0 there).

Boundary algebra: a gap-typed anchor forces+seeds the band's sweep, whose
finite values are then uniformly ``true + G_open``; the *adjusted goal*
``g = score + G_open`` keeps every comparison exact (see
:mod:`repro.align.myers_miller` for the derivation).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.constants import TYPE_GAP_S1, TYPE_MATCH, swap_gap_type
from repro.errors import IntegrityError, MatchingError
from repro.align.rowscan import RowSweeper
from repro.integrity.codec import KIND_SPECIAL_LINE
from repro.core.config import PipelineConfig
from repro.core.crosspoints import Crosspoint
from repro.core.result import StageResult
from repro.core.stage1 import ROWS_NS, Stage1Result
from repro.gpusim.perf import stage2_vram_bytes, sweep_cost
from repro.sequences.sequence import Sequence
from repro.storage.sra import SavedLine, SpecialLineStore
from repro.telemetry.runtime import NULL_TELEMETRY


@dataclass(frozen=True)
class BandRecord:
    """One band of Stage 2 = one partition of the chain it produced.

    ``namespace`` holds the special columns saved while sweeping this band
    (values already de-biased to "true tail score to ``hi``"), covering
    original rows ``[lo.i, hi.i]``.
    """

    index: int
    lo: Crosspoint  # upstream crosspoint (or the start point)
    hi: Crosspoint  # the band's anchor
    namespace: str
    column_positions: tuple[int, ...]
    cells: int


@dataclass(frozen=True)
class Stage2Result(StageResult):
    """Crosspoints over special rows, plus per-band saved columns."""

    stage: ClassVar[str] = "2"

    crosspoints: tuple[Crosspoint, ...]  # start ... end (ascending)
    bands: tuple[BandRecord, ...]        # ascending by lo.i
    cells: int
    flushed_bytes: int
    vram_bytes: int
    wall_seconds: float
    modeled_seconds: float


def run_stage2(s0: Sequence, s1: Sequence, config: PipelineConfig,
               sra: SpecialLineStore, sca: SpecialLineStore,
               stage1: Stage1Result, *, telemetry=None) -> Stage2Result:
    """Walk the optimal path backwards from the Stage-1 end point."""
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span("stage2", m=len(s0), n=len(s1)) as stage_span:
        result = _run_stage2(s0, s1, config, sra, sca, stage1, tel)
        stage_span.set(cells=result.cells, bands=len(result.bands),
                       crosspoints=len(result.crosspoints),
                       wall_seconds=result.wall_seconds)
        tel.metrics.counter("cells.swept").add(result.cells)
        tel.metrics.gauge("crosspoints.L2").set(len(result.crosspoints))
        tel.metrics.counter("stage2.flushed_bytes").add(result.flushed_bytes)
        return result


def _run_stage2(s0: Sequence, s1: Sequence, config: PipelineConfig,
                sra: SpecialLineStore, sca: SpecialLineStore,
                stage1: Stage1Result, tel) -> Stage2Result:
    scheme = config.scheme
    gopen = scheme.gap_open
    special_rows = sra.positions(ROWS_NS)
    start = time.perf_counter()

    anchor = stage1.end_point
    points: list[Crosspoint] = [anchor]
    bands: list[BandRecord] = []
    total_cells = 0
    flushed = 0
    modeled = 0.0
    # Budget each band evenly across the worst-case band count.
    band_budget = sca.capacity_bytes // max(1, len(special_rows) + 1)

    band_idx = 0
    while anchor.score > 0:
        below = [r for r in special_rows if r < anchor.i]
        r_row = below[-1] if below else 0
        h = anchor.i - r_row
        w = anchor.j
        if h == 0 or w == 0:
            raise MatchingError(
                f"positive goal {anchor.score} left at the matrix edge {anchor}")
        bias = gopen if anchor.type != TYPE_MATCH else 0
        goal = anchor.score + bias

        row_H = row_F = None
        if r_row > 0:
            try:
                line = sra.load(ROWS_NS, r_row)
            except IntegrityError as exc:
                # Degrade, don't die: a special row is an optimization.
                # Quarantine the damaged line and redo this band against
                # the next surviving row below — a wider band, more
                # recomputation, the identical crosspoint chain.
                sra.quarantine(ROWS_NS, r_row)
                special_rows.remove(r_row)
                tel.corruption(KIND_SPECIAL_LINE, exc.path or "<sra>",
                               action="widened", detail=str(exc))
                continue
            row_H = line.H.astype(np.int64)
            row_F = line.G.astype(np.int64)

        # Special-column positions for this band (flush-interval law on the
        # column axis, granularity = the Stage-2 block height).
        col_step = config.grid2.block_rows
        col_bytes = 8 * (h + 1)
        candidates = [j for j in range(col_step, w, col_step)]
        if candidates and band_budget >= col_bytes:
            keep_every = max(1, math.ceil(len(candidates) * col_bytes / band_budget))
            col_positions = candidates[::keep_every][:band_budget // col_bytes]
        else:
            col_positions = []
        # Transposed rows at which those columns appear.
        save_rows = [w - j for j in col_positions]

        sweep = RowSweeper(
            s1.codes[:w][::-1], s0.codes[r_row:anchor.i][::-1], scheme,
            start_gap=swap_gap_type(anchor.type), forced=anchor.type != TYPE_MATCH,
            tap_columns=np.array([h]), save_rows=save_rows or None,
            watch_value=goal, tracer=tel.tracer)

        found: Crosspoint | None = None
        next_p = 0
        while found is None:
            rows = np.arange(next_p, sweep.i + 1)
            next_p = sweep.i + 1
            if sweep.watch_hit is not None:
                p_hit, q_hit = sweep.watch_hit
                found = Crosspoint(anchor.i - q_hit, anchor.j - p_hit, 0,
                                   TYPE_MATCH)
                break
            if rows.size and row_H is not None:
                cols = anchor.j - rows
                # Raw reverse values: the H-join carries the anchor-run
                # seeding discount (already inside the adjusted goal); on
                # the F-join that discount cancels against the trailing
                # run's reverse-side opening, and the classic + G_open
                # re-credit restores the balance — including the case of
                # one vertical run crossing both the row and the anchor.
                h_r = sweep.tap_H[rows, 0].astype(np.int64)
                f_r = sweep.tap_E[rows, 0].astype(np.int64)
                h_hits = np.flatnonzero(row_H[cols] + h_r == goal)
                f_hits = np.flatnonzero(row_F[cols] + f_r + gopen == goal)
                if h_hits.size or f_hits.size:
                    if h_hits.size:
                        j = int(cols[h_hits[0]])
                        found = Crosspoint(r_row, j, int(row_H[j]), TYPE_MATCH)
                    else:
                        j = int(cols[f_hits[0]])
                        found = Crosspoint(r_row, j, int(row_F[j]), TYPE_GAP_S1)
                    break
            if sweep.done:
                raise MatchingError(
                    f"stage 2 band [{r_row}, {anchor.i}] found neither the "
                    f"goal {goal} nor the alignment start")
            sweep.advance(config.stage2_strip)

        # Persist the special columns inside the new partition, de-biased.
        namespace = f"stage2/band{band_idx}"
        kept: list[int] = []
        for p in sorted(sweep.saved):
            j = anchor.j - p
            if j <= found.j:
                continue  # left of the crosspoint: outside the partition
            h_col, e_col = sweep.saved[p]
            sca.save(namespace, SavedLine(
                axis="col", position=j, lo=r_row,
                H=(h_col.astype(np.int64) - bias).astype(h_col.dtype)[::-1].copy(),
                G=(e_col.astype(np.int64) - bias).astype(e_col.dtype)[::-1].copy()))
            kept.append(j)
            flushed += col_bytes
        bands.append(BandRecord(index=band_idx, lo=found, hi=anchor,
                                namespace=namespace,
                                column_positions=tuple(kept),
                                cells=sweep.cells))
        total_cells += sweep.cells
        # Model: a (processed-columns x band-height) sweep on the Stage-2
        # grid, shrunk by the minimum size requirement to the band height
        # ("the size considered ... is the distance between each special
        # row", Section IV-C).
        processed_cols = max(1, sweep.cells // max(1, h))
        modeled += sweep_cost(processed_cols, h,
                              config.grid2.shrink_to(max(h, 1), config.device),
                              config.device,
                              flushed_bytes=len(kept) * col_bytes).seconds
        points.append(found)
        anchor = found
        band_idx += 1
        # Walked distance back toward the alignment start, as a fraction
        # of the end point's row (the best proxy for remaining work).
        tel.stage_progress("stage2", 1.0 - anchor.i / max(1, stage1.end_point.i))

    wall = time.perf_counter() - start
    points.reverse()
    bands.reverse()
    bands = tuple(BandRecord(index=k, lo=b.lo, hi=b.hi, namespace=b.namespace,
                             column_positions=b.column_positions, cells=b.cells)
                  for k, b in enumerate(bands))
    return Stage2Result(
        crosspoints=tuple(points),
        bands=bands,
        cells=total_cells,
        flushed_bytes=flushed,
        vram_bytes=stage2_vram_bytes(len(s0), len(s1), config.grid2),
        wall_seconds=wall,
        modeled_seconds=modeled,
    )
