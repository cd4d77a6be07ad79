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

Before it sweeps, the stage computes :func:`chain_bound`, the exact
score of one concrete alignment and so a lower bound on the optimum,
and the sweep prunes against it (:mod:`repro.align.rowscan`): each wide
row is computed only over the window that can still hold an optimal
path.  ``cells`` stays ``m * n``, the matrix the paper's GCUPS counts;
``cells_computed`` is what the sweep actually computed.  A special row
is exact on every cell an optimal path crosses and at or below the
unpruned row elsewhere (dead cells read ``H = 0``, ``F = -inf``), so
Stage 2's goal matches, the crosspoints and the alignment are those of
an unpruned sweep.  A final best below the bound raises: the bound was
not the score of an alignment.

Outputs: the best score, its end position, and the saved special rows —
the list ``L_1 = {*, C_1}`` with the start point still unknown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.constants import TYPE_MATCH
from repro.errors import ConfigError, IntegrityError, ReproError
from repro.integrity.codec import KIND_CHECKPOINT
from repro.align import rowscan
from repro.align.rowscan import RowSweeper
from repro.align.scoring import ScoringScheme
from repro.core.checkpoint import (clear_checkpoint, load_checkpoint,
                                   quarantine_checkpoint, save_checkpoint)
from repro.core.config import PipelineConfig
from repro.core.crosspoints import Crosspoint
from repro.core.result import StageResult
from repro.gpusim.grid import SweepGeometry
from repro.gpusim.perf import stage1_vram_bytes, sweep_cost
from repro.sequences.sequence import N_CODE, Sequence
from repro.storage.sra import SavedLine, SpecialLineStore, special_row_positions
from repro.telemetry.runtime import NULL_TELEMETRY

#: SRA namespace of Stage 1's special rows.
ROWS_NS = "stage1/rows"

#: Junctions of :func:`chain_bound`, spread evenly over the rows (fewer
#: when segments would be shorter than four windows).
BOUND_JUNCTIONS = 128
#: Columns either side of its guesses a junction may snap to.
BOUND_SNAP = 16
#: Bases of the ungapped window a junction's candidate columns are
#: scored by.
BOUND_WINDOW = 32


def chain_bound(codes0, codes1, scheme: ScoringScheme) -> int:
    """A lower bound on the best local score: the exact score of one
    concrete alignment, built in a few milliseconds.

    Up to ``BOUND_JUNCTIONS + 1`` junctions sit on evenly spaced rows.
    Each snaps to the column, within ``BOUND_SNAP`` of the previous
    junction's diagonal or of the matrix diagonal, whose
    ``BOUND_WINDOW``-base ungapped window scores best (the nearest to
    the previous diagonal on a tie, as in a tandem repeat); the last
    one continues its predecessor's diagonal.  Consecutive junctions are
    joined by two ungapped runs around at most one gap, placed where the
    segment scores best, and each segment is scored exactly.  The bound
    is the best sum over a contiguous run of segments (Kadane): the
    score of the path they form, or less when two of its gaps merge
    into one run, so it never exceeds the optimum.
    """
    m, n = codes0.size, codes1.size
    count = max(1, min(BOUND_JUNCTIONS, m // (4 * BOUND_WINDOW)))
    rows = np.arange(count + 1) * m // count
    cols = np.empty(count + 1, dtype=np.int64)
    # Padded so every window is whole; a pad never matches.
    pad0 = np.concatenate([codes0, np.full(BOUND_WINDOW, N_CODE, np.uint8)])
    pad1 = np.concatenate([codes1, np.full(BOUND_WINDOW, N_CODE, np.uint8)])
    # Offsets 0, -1, 1, -2, 2, ...: argmax keeps the first of tied columns.
    spread = np.arange(2 * BOUND_SNAP + 1)
    spread = np.where(spread % 2, (spread + 1) // 2, -(spread // 2))
    window = np.arange(BOUND_WINDOW)
    r0 = c0 = 0
    for k, r in enumerate(rows[:-1].tolist()):
        guesses = np.array([[c0 + r - r0], [r * n // m]])
        cand = np.clip(guesses + spread, 0, n - 1).ravel()
        probe = pad0[r:r + BOUND_WINDOW]
        hits = ((pad1[cand[:, None] + window] == probe)
                & (probe != N_CODE)).sum(axis=1)
        r0, c0 = r, int(cand[hits.argmax()])
        cols[k] = c0
    cols[-1] = min(n, c0 + m - r0)

    best = run = 0
    for k in range(count):
        score = _segment_score(codes0, codes1, scheme, int(rows[k]),
                               int(cols[k]), int(rows[k + 1]),
                               int(cols[k + 1]))
        if score is None:
            run = 0
            continue
        run = max(run, 0) + score
        best = max(best, run)
    return best


def _segment_score(codes0, codes1, scheme: ScoringScheme, r0: int, c0: int,
                   r1: int, c1: int) -> int | None:
    """Best score of a path from ``(r0, c0)`` to ``(r1, c1)`` made of a
    run leaving the first corner and a run entering the second, joined
    by at most one gap; ``None`` when the segment runs backwards."""
    h, w = r1 - r0, c1 - c0
    if w < 0:
        return None
    pairs, gap = min(h, w), abs(h - w)

    def run(a, b):
        return np.where((a == b) & (a != N_CODE), scheme.match,
                        scheme.mismatch)

    head = run(codes0[r0:r0 + pairs], codes1[c0:c0 + pairs])
    tail = run(codes0[r1 - pairs:r1], codes1[c1 - pairs:c1])
    # The gap after t head pairs: head[:t].sum() + tail[t:].sum().
    split = int(tail.sum()) + int(np.cumsum(head - tail).max(initial=0))
    return split - (scheme.gap_cost(gap) if gap else 0)


@dataclass(frozen=True)
class Stage1Result(StageResult):
    """Best score, end point, and execution statistics of Stage 1."""

    stage: ClassVar[str] = "1"

    best_score: int
    end_point: Crosspoint
    special_rows: tuple[int, ...]
    flush_interval_rows: int
    cells: int
    cells_computed: int
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
            # No row narrower than _PRUNE_MIN_WIDTH prunes, so a narrow
            # matrix skips the bound.
            sweep = RowSweeper(
                s0.codes, s1.codes, config.scheme, local=True,
                track_best=True, save_rows=rows, tracer=tel.tracer,
                prune_bound=(chain_bound(s0.codes, s1.codes, config.scheme)
                             if n >= rowscan._PRUNE_MIN_WIDTH else None))
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
        bound = sweep.prune_bound
        if bound is not None and sweep.best < bound:
            raise ReproError(
                f"stage 1 best score {sweep.best} is below its lower bound "
                f"{bound}: the bound is not the score of an alignment")
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
            cells_computed=sweep.cells_computed,
            flushed_bytes=flushed,
            external_diagonals=geometry.external_diagonals,
            vram_bytes=stage1_vram_bytes(m, n, grid),
            wall_seconds=wall,
            modeled_seconds=modeled.seconds,
            modeled_seconds_no_flush=modeled_plain.seconds,
            resumed_from_row=resumed_from,
        )
        span.set(best_score=result.best_score, cells=result.cells,
                 cells_computed=result.cells_computed, bound=bound,
                 flushed_bytes=result.flushed_bytes,
                 wall_seconds=result.wall_seconds,
                 resumed_from_row=result.resumed_from_row)
        tel.metrics.counter("cells.swept").add(result.cells)
        tel.metrics.counter("stage1.cells_computed").add(
            result.cells_computed)
        tel.metrics.counter("stage1.flushed_bytes").add(result.flushed_bytes)
        tel.metrics.gauge("stage1.mcups").set(result.mcups_wall)
        return result
