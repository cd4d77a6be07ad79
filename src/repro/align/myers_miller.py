"""Myers-Miller linear-space global alignment over Gotoh (Section II-B),
with the paper's Stage-4 optimizations: balanced splitting and orthogonal
(goal-based) execution (Section IV-E).

Matching procedure
------------------
A partition is split at row ``r``.  The forward sweep yields ``CC`` (H
values) and ``DD`` (F values) on row ``r``; the reverse sweep yields the
adjusted tail vectors ``RR``/``SS``.  The split column maximizes

    max( CC(j) + RR(j),  DD(j) + SS(j) + G_open )

the second arm re-crediting the double-charged opening of a vertical gap
run that crosses the row (the paper's Formula 4, in maximization form).

Boundary conventions (shared with the whole pipeline):

* a partition whose *start* crosspoint is gap-typed runs its forward sweep
  with a *seeded* boundary (the continuing run pays extensions only — the
  opening was paid upstream);
* a partition whose *end* crosspoint is gap-typed runs its reverse sweep
  *forced* (only tails that end inside that run are finite); forced+seeded
  values are uniformly ``true + G_open``, which the matching subtracts
  back out.

Orthogonal execution
--------------------
When the partition's score is already known (always true inside the
pipeline: crosspoint scores bracket every partition), the reverse half is
processed as *column strips from the right* (a row sweep of the transposed
problem), matching against CC/DD after every strip and stopping at the
first hit.  Only the columns right of the split point are ever computed —
on average half of the bottom half, the paper's expected 25% total saving
(Section IV-E, Table IX).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH, swap_gap_type
from repro.errors import ConfigError, MatchingError
from repro.align import full_matrix
from repro.align.alignment import Alignment
from repro.align.batched import plan_buckets, sweep_batched, sweep_lanes
from repro.align.rowscan import RowSweeper
from repro.align.scoring import ScoringScheme


@dataclass
class MMStats:
    """Work accounting for one :func:`mm_align` call tree."""

    cells_forward: int = 0
    cells_reverse: int = 0
    splits: int = 0
    base_cases: int = 0
    base_cells: int = 0
    max_depth: int = 0

    @property
    def cells(self) -> int:
        return self.cells_forward + self.cells_reverse + self.base_cells


@dataclass
class MMConfig:
    """Tunables of the divide-and-conquer (Stage 4 knobs).

    ``base_max_cells`` is the paper's *maximum partition size* squared in
    spirit: sub-problems at most this many cells are solved by the
    full-matrix aligner.  ``balanced`` halves the largest dimension
    (Figure 10); ``orthogonal`` enables the goal-based reverse half
    (Figure 7); ``strip`` is the column-strip width of the orthogonal
    reverse sweep.
    """

    base_max_cells: int = 4096
    balanced: bool = True
    orthogonal: bool = True
    strip: int = 64

    def __post_init__(self) -> None:
        if self.base_max_cells < 4:
            raise ConfigError("base_max_cells must be at least 4")
        if self.strip < 1:
            raise ConfigError("strip width must be positive")


def degenerate_alignment(m: int, n: int) -> Alignment:
    """The only path through an empty-sided partition: one pure gap run."""
    if m and n:
        raise MatchingError("degenerate_alignment requires an empty side")
    ops = np.full(m + n, TYPE_GAP_S0 if n else TYPE_GAP_S1, dtype=np.uint8)
    return Alignment(0, 0, ops)


def _match_full(cc, dd, rr, ss, gopen, goal=None) -> tuple[int, int, int]:
    """Full matching: best split column, its join type, and the top value."""
    h_join = cc + rr
    f_join = dd + ss + gopen
    best = int(max(h_join.max(), f_join.max()))
    if goal is not None and best != goal:
        raise MatchingError(f"midpoint matching reached {best}, expected {goal}")
    hits = np.flatnonzero(h_join == best)
    if hits.size:
        j = int(hits[0])
        return j, TYPE_MATCH, int(cc[j])
    j = int(np.flatnonzero(f_join == best)[0])
    return j, TYPE_GAP_S1, int(dd[j])


def _match_orthogonal(guided, rows, vectors, scheme, config, stats,
                      out) -> None:
    """Goal-based reverse halves: transposed column strips from the right.

    Every lane is matched against its CC/DD before any strip runs; then
    the pending lanes advance ``config.strip`` rows per fused dispatch and
    are re-matched, each dropping out at its first hit and leaving the
    columns left of its split point uncomputed (the gray area of Figure
    7).  Within the first strip that hits, the first H hit wins over the
    first F hit.
    """
    gopen = scheme.gap_open
    lanes = {}
    for k, (codes0, codes1, _, end_gap, _) in guided.items():
        bottom = codes0[rows[k]:]
        # Transposed frame: rows = reversed S1 columns, columns = reversed
        # bottom rows; original F becomes the sweep's E, so the tap
        # records exactly (H, F-original) at the partition's split row.
        lanes[k] = RowSweeper(codes1[::-1], bottom[::-1], scheme,
                              start_gap=swap_gap_type(end_gap),
                              forced=end_gap != TYPE_MATCH,
                              tap_columns=np.array([bottom.size]))
    next_row = dict.fromkeys(lanes, 0)

    def matched(k) -> bool:
        _, codes1, _, end_gap, goal = guided[k]
        sweep, (cc, dd) = lanes[k], vectors[k]
        bias = gopen if end_gap != TYPE_MATCH else 0
        # Transposed row p corresponds to original column n - p.
        tap_rows = np.arange(next_row[k], sweep.i + 1)
        next_row[k] = sweep.i + 1
        cols = codes1.size - tap_rows
        rr = sweep.tap_H[tap_rows, 0].astype(np.int64) - bias
        hits = np.flatnonzero(cc[cols] + rr == goal)
        join, top = TYPE_MATCH, cc
        if not hits.size:
            ss = sweep.tap_E[tap_rows, 0].astype(np.int64) - bias
            hits = np.flatnonzero(dd[cols] + ss + gopen == goal)
            join, top = TYPE_GAP_S1, dd
        if not hits.size:
            if not sweep.done:
                return False
            stats.cells_reverse += sweep.cells
            raise MatchingError(
                f"orthogonal matching exhausted all columns without goal {goal}")
        stats.cells_reverse += sweep.cells
        j = int(cols[hits[0]])
        out[k] = (rows[k], j, join, int(top[j]), goal)
        return True

    # Row 0 is the boundary (original column n), matched before any strip.
    pending = [k for k in lanes if not matched(k)]
    for bucket in plan_buckets([lanes[k] for k in pending]):
        live = [pending[b] for b in bucket]
        while live:
            sweep_lanes([lanes[k] for k in live], config.strip)
            live = [k for k in live if not matched(k)]


def _find_midpoints(problems, scheme, config,
                    stats) -> list[tuple[int, int, int, int, int]]:
    """Every split of ``problems`` as ``(r, j, join, top_value, goal)``;
    ``goal`` is the optimum the matching reached."""
    rows = [codes0.size // 2 for codes0, *_ in problems]
    tops = [RowSweeper(codes0[:r], codes1, scheme, start_gap=start_gap)
            for (codes0, codes1, start_gap, _, _), r in zip(problems, rows)]
    sweep_batched(tops)
    stats.cells_forward += sum(top.cells for top in tops)
    # CC (H) and DD (F) on the last row of each top half.
    vectors = [(top.H.astype(np.int64), top.F.astype(np.int64))
               for top in tops]
    out: list = [None] * len(problems)
    guided = {k: p for k, p in enumerate(problems)
              if config.orthogonal and p[4] is not None}
    full = [k for k in range(len(problems)) if k not in guided]
    # Adjusted RR (H) and SS (F) tail vectors: a forward sweep over the
    # reversed bottom half, forced when the end state is gap-typed, then
    # de-biased by G_open.
    tails = []
    for k in full:
        codes0, codes1, _, end_gap, _ = problems[k]
        tails.append(RowSweeper(codes0[rows[k]:][::-1], codes1[::-1], scheme,
                                start_gap=end_gap,
                                forced=end_gap != TYPE_MATCH))
    sweep_batched(tails)
    for k, tail in zip(full, tails):
        stats.cells_reverse += tail.cells
        end_gap, goal = problems[k][3], problems[k][4]
        bias = scheme.gap_open if end_gap != TYPE_MATCH else 0
        rr = tail.H[::-1].astype(np.int64) - bias
        ss = tail.F[::-1].astype(np.int64) - bias
        cc, dd = vectors[k]
        if goal is None:
            # An unguided split also reveals the optimum.
            goal = int(max((cc + rr).max(), (dd + ss + scheme.gap_open).max()))
        out[k] = (rows[k], *_match_full(cc, dd, rr, ss, scheme.gap_open,
                                        goal), goal)
    if guided:
        _match_orthogonal(guided, rows, vectors, scheme, config, stats, out)
    return out


def _split(problems, scheme, config, stats,
           tracer) -> list[tuple[int, int, int, int, int]]:
    """Validate ``problems`` and run :func:`_find_midpoints`, inside one
    ``mm.find_midpoint`` span when traced."""
    problems = [(np.asarray(codes0, dtype=np.uint8),
                 np.asarray(codes1, dtype=np.uint8), start_gap, end_gap, goal)
                for codes0, codes1, start_gap, end_gap, goal in problems]
    for codes0, codes1, *_ in problems:
        if codes0.size < 2 or codes1.size < 1:
            raise MatchingError("find_midpoint needs m >= 2 and n >= 1")
    if tracer is None:
        return _find_midpoints(problems, scheme, config, stats)
    with tracer.span("mm.find_midpoint", partitions=len(problems)) as span:
        cells_before = stats.cells_forward + stats.cells_reverse
        out = _find_midpoints(problems, scheme, config, stats)
        span.set(cells=stats.cells_forward + stats.cells_reverse
                 - cells_before)
        return out


def find_midpoints(problems, scheme: ScoringScheme, *,
                   config: MMConfig | None = None,
                   stats: MMStats | None = None,
                   tracer=None) -> list[tuple[int, int, int, int]]:
    """Many independent Myers-Miller splits, swept as fused lanes.

    ``problems`` is a list of ``(codes0, codes1, start_gap, end_gap,
    goal)``; each entry of the result is exactly what
    :func:`find_midpoint` returns for that problem.  Every top half runs
    through one set of length-bucketed :func:`sweep_lanes` batches, and so
    does every reverse half — orthogonal ones strip by strip, each lane
    dropping out at its first goal hit.  Stage 4 sends each refinement
    round through one call.  With a ``tracer``, the call is wrapped in one
    ``mm.find_midpoint`` span (``partitions``/``cells`` attributes).
    """
    config = config or MMConfig()
    stats = stats if stats is not None else MMStats()
    return [split[:4] for split in _split(problems, scheme, config, stats,
                                          tracer)]


def find_midpoint(codes0: np.ndarray, codes1: np.ndarray,
                  scheme: ScoringScheme, *, start_gap: int = TYPE_MATCH,
                  end_gap: int = TYPE_MATCH, goal: int | None = None,
                  config: MMConfig | None = None,
                  stats: MMStats | None = None,
                  tracer=None) -> tuple[int, int, int, int]:
    """One Myers-Miller split at the middle row.

    Returns ``(r, j, join_type, top_value)``: the optimal path crosses row
    ``r = m // 2`` at column ``j`` with the given join type (H or F), and
    the top sub-problem's value is ``top_value``.  Requires ``m >= 2`` so
    both halves are non-empty.  A one-problem :func:`find_midpoints`.
    """
    return find_midpoints([(codes0, codes1, start_gap, end_gap, goal)],
                          scheme, config=config, stats=stats,
                          tracer=tracer)[0]


def mm_align(codes0: np.ndarray, codes1: np.ndarray, scheme: ScoringScheme,
             *, start_gap: int = TYPE_MATCH, end_gap: int = TYPE_MATCH,
             goal: int | None = None, config: MMConfig | None = None,
             stats: MMStats | None = None, tracer=None,
             _depth: int = 0) -> tuple[Alignment, int]:
    """Linear-space optimal global alignment (Myers-Miller over Gotoh).

    Args:
        codes0 / codes1: encoded subsequences of the partition.
        start_gap / end_gap: boundary gap states (crosspoint types).
        goal: the partition's known score; enables orthogonal execution
            and is verified at every split.
        config: divide-and-conquer tunables.
        stats: work accounting accumulator (mutated in place).
        tracer: optional telemetry tracer; each recursion level emits an
            ``mm.align`` span (m/n/depth attributes).

    Returns:
        ``(alignment, score)`` — the alignment covers the full rectangle
        and rescores (under the boundary conventions) to ``score``.
    """
    config = config or MMConfig()
    stats = stats if stats is not None else MMStats()
    stats.max_depth = max(stats.max_depth, _depth)
    codes0 = np.asarray(codes0, dtype=np.uint8)
    codes1 = np.asarray(codes1, dtype=np.uint8)
    m, n = codes0.size, codes1.size
    if tracer is not None:
        with tracer.span("mm.align", m=int(m), n=int(n), depth=_depth):
            return _mm_align(codes0, codes1, scheme, start_gap, end_gap,
                             goal, config, stats, tracer, _depth)
    return _mm_align(codes0, codes1, scheme, start_gap, end_gap, goal,
                     config, stats, None, _depth)


def _mm_align(codes0, codes1, scheme, start_gap, end_gap, goal, config,
              stats, tracer, _depth) -> tuple[Alignment, int]:
    m, n = codes0.size, codes1.size

    if m == 0 or n == 0:
        path = degenerate_alignment(m, n)
        run = m + n
        if run == 0:
            return path, 0
        kind = TYPE_GAP_S0 if n else TYPE_GAP_S1
        waived = start_gap == kind
        # The run's cost; if it also continues past the end we read the
        # "gap matrix" value, which is the same number (no further columns).
        score = -(run * scheme.gap_ext if waived else scheme.gap_cost(run))
        if end_gap != TYPE_MATCH and end_gap != kind:
            raise MatchingError("degenerate partition cannot end in the "
                                "orthogonal gap state")
        return path, score

    if m * n <= config.base_max_cells or m < 2 or n < 2:
        stats.base_cases += 1
        stats.base_cells += m * n
        [solved] = full_matrix.global_align(
            [(codes0, codes1, start_gap, end_gap)], scheme)
        return solved

    if config.balanced and n > m:
        # Halve the largest dimension (Figure 10): transpose, solve, map back.
        path, score = mm_align(codes1, codes0, scheme,
                               start_gap=swap_gap_type(start_gap),
                               end_gap=swap_gap_type(end_gap), goal=goal,
                               config=config, stats=stats, tracer=tracer,
                               _depth=_depth)
        return path.transposed(), score

    stats.splits += 1
    [(r, j_star, join, top_value, goal)] = _split(
        [(codes0, codes1, start_gap, end_gap, goal)], scheme, config, stats,
        tracer)

    top, top_score = mm_align(codes0[:r], codes1[:j_star], scheme,
                              start_gap=start_gap, end_gap=join,
                              goal=top_value, config=config, stats=stats,
                              tracer=tracer, _depth=_depth + 1)
    bottom, bottom_score = mm_align(codes0[r:], codes1[j_star:], scheme,
                                    start_gap=join, end_gap=end_gap,
                                    goal=goal - top_value, config=config,
                                    stats=stats, tracer=tracer,
                                    _depth=_depth + 1)
    if top_score + bottom_score != goal:
        raise MatchingError(
            f"split scores {top_score}+{bottom_score} != goal {goal}")
    path = top.concat(bottom.offset(r, j_star))
    return path, goal


def mm_score(codes0: np.ndarray, codes1: np.ndarray,
             scheme: ScoringScheme) -> int:
    """Global alignment score in linear space (one forward sweep)."""
    sweep = RowSweeper(np.asarray(codes0, np.uint8),
                       np.asarray(codes1, np.uint8), scheme).run()
    return int(sweep.H[-1])
