"""Reference (per-cell) DP implementations.

These are deliberately written as plain doubly-nested loops translating the
paper's Equations 1-3 verbatim.  They are quadratic in time *and* space and
only used as ground truth in the test suite: every optimized kernel
(`rowscan`, `myers_miller`, the pipeline itself) is
cross-checked against them on small inputs.

Boundary gap states
-------------------
Global alignments of *partitions* (Sections IV-A, IV-E, IV-F) carry a gap
state at each edge.  ``start_gap`` waives the gap-opening penalty of a gap
that continues from the previous partition (implemented by seeding
``E[0,0]`` / ``F[0,0]`` with 0 so the boundary run extends instead of
reopening); ``end_gap`` selects which DP matrix the partition's score is
read from (H, E or F), because the next partition will continue that gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    NEG_INF,
    SCORE_DTYPE,
    TYPE_GAP_S0,
    TYPE_GAP_S1,
    TYPE_MATCH,
)
from repro.errors import AlignmentError
from repro.align.alignment import Alignment
from repro.align.scoring import ScoringScheme
from repro.sequences.sequence import Sequence

#: Boundary gap states reuse the crosspoint type codes: TYPE_MATCH means
#: "no gap crosses this edge".
GapState = int


@dataclass(frozen=True)
class DPMatrices:
    """Full H/E/F matrices, shape (m+1, n+1)."""

    H: np.ndarray
    E: np.ndarray
    F: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.H.shape


def sw_matrices(s0: Sequence, s1: Sequence, scheme: ScoringScheme) -> DPMatrices:
    """Local (Smith-Waterman/Gotoh) matrices per Equations 1-3."""
    m, n = len(s0), len(s1)
    H = np.zeros((m + 1, n + 1), dtype=SCORE_DTYPE)
    E = np.full((m + 1, n + 1), NEG_INF, dtype=SCORE_DTYPE)
    F = np.full((m + 1, n + 1), NEG_INF, dtype=SCORE_DTYPE)
    sub = scheme.substitution_matrix(s0.codes, s1.codes)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            E[i, j] = max(E[i, j - 1] - scheme.gap_ext,
                          H[i, j - 1] - scheme.gap_first)
            F[i, j] = max(F[i - 1, j] - scheme.gap_ext,
                          H[i - 1, j] - scheme.gap_first)
            H[i, j] = max(0, E[i, j], F[i, j],
                          H[i - 1, j - 1] + sub[i - 1, j - 1])
    return DPMatrices(H, E, F)


def global_matrices(s0: Sequence, s1: Sequence, scheme: ScoringScheme,
                    start_gap: GapState = TYPE_MATCH) -> DPMatrices:
    """Global (Needleman-Wunsch/Gotoh) matrices with boundary gap state."""
    m, n = len(s0), len(s1)
    H = np.full((m + 1, n + 1), NEG_INF, dtype=SCORE_DTYPE)
    E = np.full((m + 1, n + 1), NEG_INF, dtype=SCORE_DTYPE)
    F = np.full((m + 1, n + 1), NEG_INF, dtype=SCORE_DTYPE)
    H[0, 0] = 0
    if start_gap == TYPE_GAP_S0:
        E[0, 0] = 0
    elif start_gap == TYPE_GAP_S1:
        F[0, 0] = 0
    elif start_gap != TYPE_MATCH:
        raise AlignmentError(f"invalid start_gap {start_gap!r}")
    for j in range(1, n + 1):
        E[0, j] = max(E[0, j - 1] - scheme.gap_ext,
                      H[0, j - 1] - scheme.gap_first)
        H[0, j] = E[0, j]
    for i in range(1, m + 1):
        F[i, 0] = max(F[i - 1, 0] - scheme.gap_ext,
                      H[i - 1, 0] - scheme.gap_first)
        H[i, 0] = F[i, 0]
    sub = scheme.substitution_matrix(s0.codes, s1.codes)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            E[i, j] = max(E[i, j - 1] - scheme.gap_ext,
                          H[i, j - 1] - scheme.gap_first)
            F[i, j] = max(F[i - 1, j] - scheme.gap_ext,
                          H[i - 1, j] - scheme.gap_first)
            H[i, j] = max(E[i, j], F[i, j],
                          H[i - 1, j - 1] + sub[i - 1, j - 1])
    return DPMatrices(H, E, F)


def best_cell(H: np.ndarray) -> tuple[int, tuple[int, int]]:
    """Best score and its (first, row-major) position — Stage 1's output."""
    pos = int(np.argmax(H))
    i, j = divmod(pos, H.shape[1])
    return int(H[i, j]), (i, j)


def sw_score(s0: Sequence, s1: Sequence, scheme: ScoringScheme) -> int:
    """Optimal local alignment score (reference)."""
    return best_cell(sw_matrices(s0, s1, scheme).H)[0]


def global_score(s0: Sequence, s1: Sequence, scheme: ScoringScheme,
                 start_gap: GapState = TYPE_MATCH,
                 end_gap: GapState = TYPE_MATCH) -> int:
    """Optimal global score with boundary gap states (reference)."""
    mats = global_matrices(s0, s1, scheme, start_gap=start_gap)
    m, n = len(s0), len(s1)
    if end_gap == TYPE_MATCH:
        return int(mats.H[m, n])
    if end_gap == TYPE_GAP_S0:
        return int(mats.E[m, n])
    if end_gap == TYPE_GAP_S1:
        return int(mats.F[m, n])
    raise AlignmentError(f"invalid end_gap {end_gap!r}")


def _traceback(mats: DPMatrices, sub: np.ndarray, scheme: ScoringScheme,
               i: int, j: int, state: GapState, local: bool,
               free_start: bool = False) -> Alignment:
    """Shared affine traceback; walks H/E/F states back to the start.

    ``free_start`` stops at any boundary cell (semi-global alignment,
    where row 0 and column 0 carry free zero scores).
    """
    H, E, F = mats.H, mats.E, mats.F
    ops: list[int] = []
    while True:
        if state == TYPE_MATCH:
            if local and H[i, j] == 0:
                break
            if free_start and (i == 0 or j == 0):
                break
            if i == 0 and j == 0:
                break
            if (i > 0 and j > 0
                    and H[i, j] == H[i - 1, j - 1] + sub[i - 1, j - 1]):
                ops.append(TYPE_MATCH)
                i -= 1
                j -= 1
            elif H[i, j] == E[i, j]:
                state = TYPE_GAP_S0
            elif H[i, j] == F[i, j]:
                state = TYPE_GAP_S1
            else:  # pragma: no cover - matrix corruption guard
                raise AlignmentError(f"traceback stuck in H at ({i}, {j})")
        elif state == TYPE_GAP_S0:
            if j == 0:
                break  # boundary gap continues into the previous partition
            ops.append(TYPE_GAP_S0)
            if E[i, j] == H[i, j - 1] - scheme.gap_first:
                state = TYPE_MATCH
            elif E[i, j] != E[i, j - 1] - scheme.gap_ext:  # pragma: no cover
                raise AlignmentError(f"traceback stuck in E at ({i}, {j})")
            j -= 1
            if j == 0 and state == TYPE_GAP_S0 and E[i, 0] == NEG_INF:
                raise AlignmentError("E-gap run reached an unseeded boundary")
        elif state == TYPE_GAP_S1:
            if i == 0:
                break
            ops.append(TYPE_GAP_S1)
            if F[i, j] == H[i - 1, j] - scheme.gap_first:
                state = TYPE_MATCH
            elif F[i, j] != F[i - 1, j] - scheme.gap_ext:  # pragma: no cover
                raise AlignmentError(f"traceback stuck in F at ({i}, {j})")
            i -= 1
            if i == 0 and state == TYPE_GAP_S1 and F[0, j] == NEG_INF:
                raise AlignmentError("F-gap run reached an unseeded boundary")
        else:
            raise AlignmentError(f"invalid traceback state {state!r}")
    ops.reverse()
    return Alignment(i, j, np.asarray(ops, dtype=np.uint8))


def sw_align(s0: Sequence, s1: Sequence, scheme: ScoringScheme) -> Alignment:
    """Optimal local alignment with traceback (reference, quadratic space)."""
    mats = sw_matrices(s0, s1, scheme)
    _, (i, j) = best_cell(mats.H)
    sub = scheme.substitution_matrix(s0.codes, s1.codes)
    return _traceback(mats, sub, scheme, i, j, TYPE_MATCH, local=True)


def global_align(s0: Sequence, s1: Sequence, scheme: ScoringScheme,
                 start_gap: GapState = TYPE_MATCH,
                 end_gap: GapState = TYPE_MATCH) -> Alignment:
    """Optimal global alignment with boundary gap states (reference)."""
    mats = global_matrices(s0, s1, scheme, start_gap=start_gap)
    sub = scheme.substitution_matrix(s0.codes, s1.codes)
    return _traceback(mats, sub, scheme, len(s0), len(s1), end_gap, local=False)
