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
The row body is written out here rather than calling
:func:`repro.align.rowscan.row_step`: the free left column pins
``F(i, 0)`` like a local sweep but has no zero floor on the interior, a
combination ``row_step``'s ``zero`` operand does not express and that
would need a flag serving only this caller.

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
from repro.align.full_matrix import _sub_matrix
from repro.align.profile import build_profile
from repro.align.reference import DPMatrices, _traceback
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


def _semiglobal_matrices(codes0: np.ndarray, codes1: np.ndarray,
                         scheme: ScoringScheme) -> DPMatrices:
    """Full H/E/F with free start boundaries (H = 0 on row 0 / column 0)."""
    m, n = codes0.size, codes1.size
    gext = SCORE_DTYPE(scheme.gap_ext)
    gfirst = SCORE_DTYPE(scheme.gap_first)
    ext_ramp = np.arange(n + 1, dtype=SCORE_DTYPE) * gext
    H = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    E = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    F = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    H[0] = 0
    E[0] = NEG_INF
    F[0] = NEG_INF

    sub_lut = build_profile(scheme, codes1)

    X = np.empty(n + 1, dtype=SCORE_DTYPE)
    T = np.empty(n + 1, dtype=SCORE_DTYPE)
    for i in range(1, m + 1):
        sub = sub_lut[codes0[i - 1]]
        np.maximum(F[i - 1] - gext, H[i - 1] - gfirst, out=F[i])
        np.add(H[i - 1, :-1], sub, out=X[1:])
        np.maximum(X[1:], F[i, 1:], out=X[1:])
        X[0] = 0          # free start on the left column
        F[i, 0] = NEG_INF
        np.add(X, ext_ramp, out=T)
        np.maximum.accumulate(T, out=T)
        E[i, 1:] = T[:-1]
        E[i, 1:] -= gfirst + ext_ramp[:-1]
        E[i, 0] = NEG_INF
        np.maximum(X, E[i], out=H[i])
        H[i, 0] = 0
    return DPMatrices(H, E, F)


def semiglobal_align(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                     scheme: ScoringScheme) -> SemiGlobalResult:
    """Optimal semi-global alignment (free leading and trailing gaps)."""
    codes0 = s0.codes if isinstance(s0, Sequence) else np.asarray(s0, np.uint8)
    codes1 = s1.codes if isinstance(s1, Sequence) else np.asarray(s1, np.uint8)
    m, n = codes0.size, codes1.size
    if m == 0 or n == 0:
        raise AlignmentError("cannot align empty sequences")
    mats = _semiglobal_matrices(codes0, codes1, scheme)
    # Free end: best cell on the bottom row or right column.
    bottom_j = int(np.argmax(mats.H[m]))
    right_i = int(np.argmax(mats.H[:, n]))
    if mats.H[m, bottom_j] >= mats.H[right_i, n]:
        i, j = m, bottom_j
    else:
        i, j = right_i, n
    score = int(mats.H[i, j])
    sub = _sub_matrix(codes0, codes1, scheme)
    path = _traceback(mats, sub, scheme, i, j, TYPE_MATCH, local=False,
                      free_start=True)
    return SemiGlobalResult(alignment=path, score=score)


def semiglobal_score(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                     scheme: ScoringScheme) -> int:
    """Semi-global score only (no traceback)."""
    return semiglobal_align(s0, s1, scheme).score
