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
  values are uniformly ``true + G_open``, which :func:`_tail_vectors`
  subtracts back out.

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


def _forward_vectors(codes0, codes1, scheme, start_gap,
                     stats) -> tuple[np.ndarray, np.ndarray]:
    """CC (H) and DD (F) on the last row of the top half."""
    sweep = RowSweeper(codes0, codes1, scheme, start_gap=start_gap).run()
    stats.cells_forward += sweep.cells
    return sweep.H.astype(np.int64), sweep.F.astype(np.int64)


def _tail_vectors(codes0, codes1, scheme, end_gap,
                  stats) -> tuple[np.ndarray, np.ndarray]:
    """Adjusted RR (H) and SS (F) tail vectors, indexed by original column.

    Computed as a forward sweep over reversed sequences; forced when the
    end state is gap-typed, then de-biased by G_open.
    """
    sweep = RowSweeper(codes0[::-1], codes1[::-1], scheme,
                       start_gap=end_gap, forced=end_gap != TYPE_MATCH).run()
    stats.cells_reverse += sweep.cells
    bias = scheme.gap_open if end_gap != TYPE_MATCH else 0
    rr = sweep.H[::-1].astype(np.int64) - bias
    ss = sweep.F[::-1].astype(np.int64) - bias
    return rr, ss


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


def _match_orthogonal(codes0_bottom, codes1, scheme, end_gap, cc, dd, goal,
                      config, stats) -> tuple[int, int, int]:
    """Goal-based reverse half: transposed column strips from the right.

    Returns (split column, join type, top value).  Stops as soon as the
    goal score is matched, leaving the columns left of the split point
    uncomputed (the gray area of Figure 7).
    """
    h = codes0_bottom.size
    n = codes1.size
    gopen = scheme.gap_open
    bias = gopen if end_gap != TYPE_MATCH else 0
    # Transposed frame: rows = reversed S1 columns, columns = reversed
    # bottom rows; original F becomes the sweep's E, so the tap records
    # exactly (H, F-original) at the partition's split row.
    sweep = RowSweeper(codes1[::-1], codes0_bottom[::-1], scheme,
                       start_gap=swap_gap_type(end_gap),
                       forced=end_gap != TYPE_MATCH,
                       tap_columns=np.array([h]))
    # Transposed row p corresponds to original column n - p; row 0 is the
    # boundary (original column n) and is matched before any strip runs.
    next_row = 0
    while True:
        rows = np.arange(next_row, sweep.i + 1)
        next_row = sweep.i + 1
        if rows.size:
            cols = n - rows
            rr = sweep.tap_H[rows, 0].astype(np.int64) - bias
            ss = sweep.tap_E[rows, 0].astype(np.int64) - bias
            h_hits = np.flatnonzero(cc[cols] + rr == goal)
            f_hits = np.flatnonzero(dd[cols] + ss + gopen == goal)
            if h_hits.size or f_hits.size:
                stats.cells_reverse += sweep.cells
                if h_hits.size:
                    j = int(cols[h_hits[0]])
                    return j, TYPE_MATCH, int(cc[j])
                j = int(cols[f_hits[0]])
                return j, TYPE_GAP_S1, int(dd[j])
        if sweep.done:
            stats.cells_reverse += sweep.cells
            raise MatchingError(
                f"orthogonal matching exhausted all columns without goal {goal}")
        sweep.advance(config.strip)


def find_midpoint(codes0: np.ndarray, codes1: np.ndarray,
                  scheme: ScoringScheme, *, start_gap: int = TYPE_MATCH,
                  end_gap: int = TYPE_MATCH, goal: int | None = None,
                  config: MMConfig | None = None,
                  stats: MMStats | None = None,
                  tracer=None) -> tuple[int, int, int, int]:
    """One Myers-Miller split at the middle row.

    Returns ``(r, j, join_type, top_value)``: the optimal path crosses row
    ``r = m // 2`` at column ``j`` with the given join type (H or F), and
    the top sub-problem's value is ``top_value``.  Stage 4 drives its
    iterative refinement through this entry point; ``mm_align`` recurses on
    it.  Requires ``m >= 2`` so both halves are non-empty.  With a
    ``tracer``, the split is wrapped in an ``mm.find_midpoint`` span.
    """
    config = config or MMConfig()
    stats = stats if stats is not None else MMStats()
    codes0 = np.asarray(codes0, dtype=np.uint8)
    codes1 = np.asarray(codes1, dtype=np.uint8)
    if codes0.size < 2 or codes1.size < 1:
        raise MatchingError("find_midpoint needs m >= 2 and n >= 1")
    if tracer is not None:
        with tracer.span("mm.find_midpoint", m=int(codes0.size),
                         n=int(codes1.size), goal=goal) as span:
            cells_before = stats.cells_forward + stats.cells_reverse
            out = _find_midpoint(codes0, codes1, scheme, start_gap, end_gap,
                                 goal, config, stats)
            span.set(row=out[0], column=out[1],
                     cells=stats.cells_forward + stats.cells_reverse
                           - cells_before)
            return out
    return _find_midpoint(codes0, codes1, scheme, start_gap, end_gap, goal,
                          config, stats)


def _find_midpoint(codes0, codes1, scheme, start_gap, end_gap, goal, config,
                   stats) -> tuple[int, int, int, int]:
    r = codes0.size // 2
    cc, dd = _forward_vectors(codes0[:r], codes1, scheme, start_gap, stats)
    if config.orthogonal and goal is not None:
        j, join, top_value = _match_orthogonal(
            codes0[r:], codes1, scheme, end_gap, cc, dd, goal, config, stats)
    else:
        rr, ss = _tail_vectors(codes0[r:], codes1, scheme, end_gap, stats)
        j, join, top_value = _match_full(cc, dd, rr, ss, scheme.gap_open, goal)
    return r, j, join, top_value


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
        return full_matrix.global_align(codes0, codes1, scheme,
                                        start_gap=start_gap, end_gap=end_gap)

    if config.balanced and n > m:
        # Halve the largest dimension (Figure 10): transpose, solve, map back.
        path, score = mm_align(codes1, codes0, scheme,
                               start_gap=swap_gap_type(start_gap),
                               end_gap=swap_gap_type(end_gap), goal=goal,
                               config=config, stats=stats, tracer=tracer,
                               _depth=_depth)
        return path.transposed(), score

    stats.splits += 1
    if goal is None:
        # One unguided split also reveals the optimum.
        r = m // 2
        cc, dd = _forward_vectors(codes0[:r], codes1, scheme, start_gap,
                                  stats)
        rr, ss = _tail_vectors(codes0[r:], codes1, scheme, end_gap, stats)
        j_star, join, top_value = _match_full(cc, dd, rr, ss,
                                              scheme.gap_open, None)
        goal = int(max((cc + rr).max(), (dd + ss + scheme.gap_open).max()))
    else:
        r, j_star, join, top_value = find_midpoint(
            codes0, codes1, scheme, start_gap=start_gap, end_gap=end_gap,
            goal=goal, config=config, stats=stats, tracer=tracer)

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
