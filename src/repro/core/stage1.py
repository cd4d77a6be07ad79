"""Stage 1 — obtain the best score (Section IV-B).

A full forward Smith-Waterman sweep of the DP matrix (the CUDAlign 1.0
kernel) that additionally flushes *special rows* to the SRA.  Only rows at
multiples of the block height ``alpha * T`` are candidates (they are what
the horizontal bus holds), and the flush interval obeys the
``ceil(8mn / (alpha*T*|SRA|))`` law.

Special rows are flushed *as the sweep passes them* (the paper's
behaviour: the horizontal bus drains to disk at the flush interval), which
together with the optional checkpointing makes the multi-hour stage
restartable: on resume, rows flushed before the last checkpoint are
already in the durable SRA and at most ``checkpoint_every_rows`` rows are
re-processed.  A row is not fsync'd when it is flushed; each checkpoint
first fsyncs the rows flushed (or recovered) since the previous one, so
a run that never checkpoints never fsyncs a row.

Outputs: the best score, its end position, and the saved special rows —
the list ``L_1 = {*, C_1}`` with the start point still unknown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, ClassVar

from repro.constants import TYPE_MATCH
from repro.errors import ConfigError, IntegrityError
from repro.integrity.codec import KIND_CHECKPOINT
from repro.align.rowscan import RowSweeper
from repro.core.checkpoint import (clear_checkpoint, load_checkpoint,
                                   quarantine_checkpoint, save_checkpoint)
from repro.core.config import PipelineConfig
from repro.core.crosspoints import Crosspoint
from repro.core.result import StageResult
from repro.gpusim.grid import SweepGeometry
from repro.gpusim.perf import stage1_vram_bytes, sweep_cost
from repro.sequences.sequence import Sequence
from repro.storage.sra import SavedLine, SpecialLineStore, special_row_positions
from repro.telemetry.runtime import NULL_TELEMETRY

#: SRA namespace of Stage 1's special rows.
ROWS_NS = "stage1/rows"


@dataclass(frozen=True)
class Stage1Result(StageResult):
    """Best score, end point, and execution statistics of Stage 1."""

    stage: ClassVar[str] = "1"

    best_score: int
    end_point: Crosspoint
    special_rows: tuple[int, ...]
    flush_interval_rows: int
    cells: int
    flushed_bytes: int
    external_diagonals: int
    vram_bytes: int
    wall_seconds: float
    modeled_seconds: float
    modeled_seconds_no_flush: float
    resumed_from_row: int = 0

    @property
    def mcups_modeled(self) -> float:
        """Modeled device MCUPS (the Table IV column)."""
        return self.cells / self.modeled_seconds / 1e6


def stage1_sweep_plan(m: int, n: int, config: PipelineConfig,
                      capacity_bytes: int | None = None
                      ) -> tuple[Any, tuple[int, ...]]:
    """The ``(grid, special_rows)`` Stage 1 will use for this input.

    Callers building a Stage-1 sweeper *outside* :func:`run_stage1` (the
    worker pool's fused group presweep) need the exact save-row set the
    stage would request, or the pre-swept lanes would miss SRA flushes.
    ``capacity_bytes`` defaults to ``config.sra_bytes`` — the capacity
    the pipeline gives its :class:`SpecialLineStore`.
    """
    grid = config.grid1.shrink_to(n, config.device)
    if capacity_bytes is None:
        capacity_bytes = config.sra_bytes
    rows = special_row_positions(m, n, grid.block_rows, capacity_bytes)
    return grid, tuple(rows)


def run_stage1(s0: Sequence, s1: Sequence, config: PipelineConfig,
               sra: SpecialLineStore, *,
               checkpoint_path: str | None = None,
               checkpoint_every_rows: int | None = None,
               progress=None, telemetry=None,
               sweeper=None) -> Stage1Result:
    """Sweep the full matrix, track the best cell, flush special rows.

    ``sweeper`` injects a pre-built (possibly already advanced, even
    completed) sweeper instead of constructing one — the worker pool's
    micro-batcher presweeps many small jobs' Stage 1 lanes in one fused
    batch and hands each job its finished lane.  The injected sweeper
    must cover this exact input and have been built with the save rows
    from :func:`stage1_sweep_plan`; its saved rows are flushed to the
    SRA here exactly as a fresh sweep's would be.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    m, n = len(s0), len(s1)
    grid = config.grid1.shrink_to(n, config.device)
    rows = special_row_positions(m, n, grid.block_rows, sra.capacity_bytes)
    interval = rows[0] if rows else 0

    start = time.perf_counter()
    with tel.span("stage1", m=m, n=n, special_rows=len(rows)) as span:
        if sweeper is not None:
            if (sweeper.m, sweeper.n) != (m, n):
                raise ConfigError(
                    f"injected stage1 sweeper covers "
                    f"{sweeper.m}x{sweeper.n}, input is {m}x{n}")
            sweep = sweeper
        else:
            sweep = RowSweeper(s0.codes, s1.codes, config.scheme,
                               local=True, track_best=True, save_rows=rows,
                               tracer=tel.tracer)
        resumed_from = 0
        if checkpoint_path is not None and sweeper is None:
            try:
                state = load_checkpoint(checkpoint_path, m, n)
            except IntegrityError as exc:
                # A corrupt checkpoint only costs the rows it would have
                # skipped: quarantine it and run a fresh sweep.
                quarantine_checkpoint(checkpoint_path)
                tel.corruption(KIND_CHECKPOINT, checkpoint_path,
                               action="recomputed", detail=str(exc))
                state = None
            if state is not None:
                sweep.load_state(state)
                resumed_from = sweep.i

        flushed = len(sra.positions(ROWS_NS)) * 8 * (n + 1)
        rows_since_checkpoint = 0
        # Bands of one block row each: the numeric result is identical, but
        # the loop boundary is where the simulated horizontal bus hands rows
        # down — and where flushes and checkpoints happen.  Entered even
        # when an injected sweeper arrives already done: its saved rows
        # still have to drain to the SRA.
        while True:
            done = sweep.advance(grid.block_rows) if not sweep.done else 0
            for r in sorted(sweep.saved):
                if sra.has(ROWS_NS, r):
                    sweep.saved.pop(r)
                    continue
                h, f = sweep.saved.pop(r)
                line = SavedLine(axis="row", position=r, lo=0, H=h, G=f)
                sra.save(ROWS_NS, line)
                flushed += line.nbytes
            if checkpoint_path is not None and checkpoint_every_rows:
                rows_since_checkpoint += done
                if rows_since_checkpoint >= checkpoint_every_rows and not sweep.done:
                    save_checkpoint(checkpoint_path, sweep, m, n,
                                    tracer=tel.tracer, barrier=sra.sync)
                    tel.metrics.counter("checkpoint.writes").add(1)
                    rows_since_checkpoint = 0
            fraction = sweep.i / m
            tel.stage_progress("stage1", fraction)
            if progress is not None:
                progress("stage1", fraction)
            if sweep.done:
                break
        if checkpoint_path is not None:
            clear_checkpoint(checkpoint_path)
        wall = time.perf_counter() - start

        geometry = SweepGeometry(m, n, grid)
        modeled = sweep_cost(m, n, grid, config.device, flushed_bytes=flushed)
        modeled_plain = sweep_cost(m, n, grid, config.device)

        end_point = Crosspoint(sweep.best_pos[0], sweep.best_pos[1],
                               sweep.best, TYPE_MATCH)
        result = Stage1Result(
            best_score=sweep.best,
            end_point=end_point,
            special_rows=tuple(sra.positions(ROWS_NS)),
            flush_interval_rows=interval,
            cells=sweep.cells,
            flushed_bytes=flushed,
            external_diagonals=geometry.external_diagonals,
            vram_bytes=stage1_vram_bytes(m, n, grid),
            wall_seconds=wall,
            modeled_seconds=modeled.seconds,
            modeled_seconds_no_flush=modeled_plain.seconds,
            resumed_from_row=resumed_from,
        )
        span.set(best_score=result.best_score, cells=result.cells,
                 flushed_bytes=result.flushed_bytes,
                 wall_seconds=result.wall_seconds,
                 resumed_from_row=result.resumed_from_row)
        tel.metrics.counter("cells.swept").add(result.cells)
        tel.metrics.counter("stage1.flushed_bytes").add(result.flushed_bytes)
        tel.metrics.gauge("stage1.mcups").set(result.mcups_wall)
        return result
