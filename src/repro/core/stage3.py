"""Stage 3 — splitting partitions (Section IV-D).

Each partition produced by Stage 2 is swept *forward* from its start
crosspoint, in row strips (the orthogonal direction of Stage 2), matching
the forward (H, E) values against the special columns Stage 2 saved.
Every special column the optimal path crosses yields a new crosspoint;
once the last special column of a partition is intercepted, the partition
needs no further computation.

Matching algebra: the forward sweep is seeded with the anchor's gap state
(the continuing run pays extensions only), so its relative values satisfy
``anchor.score + fwd == crosspoint-convention forward score``.  The saved
column holds de-biased tails ``hi.score - forward``; hence the goal for a
sub-partition is simply ``hi.score - anchor.score`` with the usual
``+ G_open`` re-credit on the E-join (a horizontal run crossing the
column pays its opening on both sides).

Each band's special columns are consumed here and released from the
store, keeping disk usage linear.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.constants import TYPE_GAP_S0, TYPE_MATCH
from repro.errors import IntegrityError, MatchingError
from repro.align.rowscan import RowSweeper
from repro.integrity.codec import KIND_SPECIAL_LINE
from repro.core.config import PipelineConfig
from repro.core.crosspoints import Crosspoint
from repro.core.result import StageResult
from repro.core.stage2 import BandRecord, Stage2Result
from repro.gpusim.perf import stage3_vram_bytes, sweep_cost
from repro.sequences.sequence import Sequence
from repro.storage.sra import SpecialLineStore
from repro.telemetry.runtime import NULL_TELEMETRY


@dataclass(frozen=True)
class Stage3Result(StageResult):
    """The refined crosspoint chain and execution statistics."""

    stage: ClassVar[str] = "3"

    crosspoints: tuple[Crosspoint, ...]
    cells: int
    effective_blocks: int      # the B3 actually used (Table VIII)
    vram_bytes: int
    wall_seconds: float
    modeled_seconds: float


def _match_on_row(anchor: Crosspoint, jc: int, line, scheme, goal: int
                  ) -> Crosspoint:
    """Zero-height sub-partition: the path runs along one row, so it
    crosses the special column inside a horizontal run (E-join only)."""
    w = jc - anchor.j
    fwd_e = -(w * scheme.gap_ext if anchor.type == TYPE_GAP_S0
              else scheme.gap_cost(w))
    _, tail_e = line.value_at(anchor.i)
    if fwd_e + tail_e + scheme.gap_open != goal:
        raise MatchingError(
            f"single-row partition failed to match column {jc} (goal {goal})")
    return Crosspoint(anchor.i, jc, anchor.score + fwd_e, TYPE_GAP_S0)


def _split_band(s0: Sequence, s1: Sequence, config: PipelineConfig,
                sca: SpecialLineStore, band: BandRecord, tel=NULL_TELEMETRY
                ) -> tuple[list[Crosspoint], int, float]:
    """Find the crosspoints of one partition; returns (points, cells, t_model)."""
    scheme = config.scheme
    gopen = scheme.gap_open
    tracer = tel.tracer
    anchor = band.lo
    end = band.hi
    points: list[Crosspoint] = []
    cells = 0
    modeled = 0.0

    for jc in band.column_positions:
        if jc <= anchor.j or jc >= end.j:
            continue
        try:
            line = sca.load(band.namespace, jc)
        except IntegrityError as exc:
            # A special column only refines the chain; skipping a corrupt
            # one merges its sub-partition into the next (wider Myers-
            # Miller recursion downstream, identical alignment).
            sca.quarantine(band.namespace, jc)
            tel.corruption(KIND_SPECIAL_LINE, exc.path or "<sca>",
                           action="widened", detail=str(exc))
            continue
        goal = end.score - anchor.score
        h = end.i - anchor.i
        w = jc - anchor.j
        if h == 0:
            anchor = _match_on_row(anchor, jc, line, scheme, goal)
            points.append(anchor)
            continue
        col_H = line.H.astype(np.int64)
        col_E = line.G.astype(np.int64)

        sweep = RowSweeper(s0.codes[anchor.i:end.i], s1.codes[anchor.j:jc],
                           scheme, start_gap=anchor.type,
                           tap_columns=np.array([w]), tracer=tracer)
        found: Crosspoint | None = None
        next_i = 0
        while found is None:
            rows = np.arange(next_i, sweep.i + 1)
            next_i = sweep.i + 1
            if rows.size:
                abs_rows = anchor.i + rows
                tails_h = col_H[abs_rows - line.lo]
                tails_e = col_E[abs_rows - line.lo]
                fwd_h = sweep.tap_H[rows, 0].astype(np.int64)
                fwd_e = sweep.tap_E[rows, 0].astype(np.int64)
                h_hits = np.flatnonzero(fwd_h + tails_h == goal)
                e_hits = np.flatnonzero(fwd_e + tails_e + gopen == goal)
                if h_hits.size or e_hits.size:
                    if h_hits.size:
                        i = int(abs_rows[h_hits[0]])
                        found = Crosspoint(i, jc,
                                           anchor.score + int(fwd_h[h_hits[0]]),
                                           TYPE_MATCH)
                    else:
                        i = int(abs_rows[e_hits[0]])
                        found = Crosspoint(i, jc,
                                           anchor.score + int(fwd_e[e_hits[0]]),
                                           TYPE_GAP_S0)
                    break
            if sweep.done:
                raise MatchingError(
                    f"stage 3 could not match column {jc} of band "
                    f"{band.namespace} (goal {goal})")
            sweep.advance(config.stage3_strip)
        cells += sweep.cells
        sub_h = max(1, sweep.cells // max(1, w))
        grid = config.grid3.shrink_to(max(w, 1), config.device)
        modeled += sweep_cost(sub_h, w, grid, config.device).seconds
        points.append(found)
        anchor = found
    return points, cells, modeled


def run_stage3(s0: Sequence, s1: Sequence, config: PipelineConfig,
               sca: SpecialLineStore, stage2: Stage2Result, *,
               telemetry=None) -> Stage3Result:
    """Refine every Stage-2 partition against its saved special columns."""
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    start = time.perf_counter()
    total_cells = 0
    modeled = 0.0

    with tel.span("stage3", bands=len(stage2.bands)) as stage_span:
        results = [_split_band(s0, s1, config, sca, band, tel)
                   for band in stage2.bands]
        chain: list[Crosspoint] = [stage2.crosspoints[0]]
        widths: list[int] = []
        for band, (points, cells, t_model) in zip(stage2.bands, results):
            total_cells += cells
            modeled += t_model
            chain.extend(points)
            chain.append(band.hi)
            prev = band.lo
            for point in (*points, band.hi):
                widths.append(max(1, point.j - prev.j))
                prev = point
            sca.release(band.namespace)

        min_width = min(widths) if widths else len(s1)
        b3 = config.grid3.shrink_to(min_width, config.device).blocks
        wall = time.perf_counter() - start
        result = Stage3Result(
            crosspoints=tuple(chain),
            cells=total_cells,
            effective_blocks=b3,
            vram_bytes=stage3_vram_bytes(len(s0), len(s1), config.grid3),
            wall_seconds=wall,
            modeled_seconds=modeled,
        )
        stage_span.set(cells=result.cells,
                       crosspoints=len(result.crosspoints),
                       wall_seconds=result.wall_seconds)
        tel.metrics.counter("cells.swept").add(result.cells)
        tel.metrics.gauge("crosspoints.L3").set(len(result.crosspoints))
        return result
