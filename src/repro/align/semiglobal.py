"""Semi-global (overlap) alignment — the third alignment class of
Section II ("composed of prefixes or suffixes ... where leading/trailing
gaps are ignored").

Leading gaps are free on both sequences (the path may start anywhere on
the top row or left column at score 0) and trailing gaps are free (the
score is the maximum over the bottom row and right column).  Used to
anchor one sequence inside another without local alignment's interior
zero-resets — e.g. placing a contig against a chromosome.

Built on the same vectorized machinery as everything else: a
full-matrix pass with free boundaries and the shared affine traceback.
Each row is :func:`repro.align.rowscan.row_step` as a global row whose
column 0 is seeded like a tile's incoming edge, ``left=(0, -inf, 0)``:
the free left column starts the in-row scan at 0 and exposes H = 0, with
no zero floor on the interior.  One write then pins ``F(i, 0)`` to -inf,
as a local sweep does (column 0 is never a vertical-gap source here).

Convention: the *empty overlap* — both sequences consumed entirely by
free leading/trailing gaps — is a valid semi-global alignment of score 0,
so the score never drops below zero (the standard overlap-alignment
convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE, TYPE_MATCH
from repro.errors import AlignmentError
from repro.align.alignment import Alignment
from repro.align.full_matrix import _sub_scores
from repro.align.reference import DPMatrices, _traceback
from repro.align.rowscan import row_step
from repro.align.scoring import ScoringScheme
from repro.sequences.sequence import Sequence


@dataclass(frozen=True)
class SemiGlobalResult:
    """An overlap alignment with its free-end coordinates."""

    alignment: Alignment
    score: int

    @property
    def start(self) -> tuple[int, int]:
        return self.alignment.start

    @property
    def end(self) -> tuple[int, int]:
        return self.alignment.end


def _semiglobal_matrices(sub: np.ndarray, scheme: ScoringScheme) -> DPMatrices:
    """Full H/E/F with free start boundaries (H = 0 on row 0 / column 0)
    from the ``(m, n)`` substitution scores."""
    m, n = sub.shape
    gext = SCORE_DTYPE(scheme.gap_ext)
    gfirst = SCORE_DTYPE(scheme.gap_first)
    ext_ramp = np.arange(n + 1, dtype=SCORE_DTYPE) * gext
    egap = gfirst + ext_ramp[:-1]
    left = (0, NEG_INF, 0)
    gopen = SCORE_DTYPE(scheme.gap_open)
    H = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    E = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    F = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    H[0] = 0
    E[0] = NEG_INF
    F[0] = NEG_INF

    X = np.empty(n + 1, dtype=SCORE_DTYPE)
    T = np.empty(n + 1, dtype=SCORE_DTYPE)
    for i in range(1, m + 1):
        row_step(H[i - 1], F[i - 1], H[i], E[i], F[i], X, T, sub[i - 1],
                 gext, gfirst, ext_ramp, egap, None, left=left, gopen=gopen)
        F[i, 0] = NEG_INF
    return DPMatrices(H, E, F)


def semiglobal_align(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                     scheme: ScoringScheme) -> SemiGlobalResult:
    """Optimal semi-global alignment (free leading and trailing gaps)."""
    codes0 = s0.codes if isinstance(s0, Sequence) else np.asarray(s0, np.uint8)
    codes1 = s1.codes if isinstance(s1, Sequence) else np.asarray(s1, np.uint8)
    m, n = codes0.size, codes1.size
    if m == 0 or n == 0:
        raise AlignmentError("cannot align empty sequences")
    sub = _sub_scores(codes0[:, None], codes1[None, :], scheme)
    mats = _semiglobal_matrices(sub, scheme)
    # Free end: best cell on the bottom row or right column.
    bottom_j = int(np.argmax(mats.H[m]))
    right_i = int(np.argmax(mats.H[:, n]))
    if mats.H[m, bottom_j] >= mats.H[right_i, n]:
        i, j = m, bottom_j
    else:
        i, j = right_i, n
    score = int(mats.H[i, j])
    path = _traceback(mats, sub, scheme, i, j, TYPE_MATCH, local=False,
                      free_start=True)
    return SemiGlobalResult(alignment=path, score=score)


def semiglobal_score(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                     scheme: ScoringScheme) -> int:
    """Semi-global score only (no traceback)."""
    return semiglobal_align(s0, s1, scheme).score
