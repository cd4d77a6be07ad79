"""Vectorized full-matrix aligner with traceback.

This is the *base case* engine: Stage 5 partitions and the Myers-Miller
recursion bottom out here once a sub-problem fits comfortably in memory
(partitions are bounded by ``max_partition_size``, Section IV-F, so this
stays O(1) memory per partition and O(m+n) overall).

Each row is :func:`repro.align.rowscan.row_step` reading row ``i-1`` and
writing row ``i`` of the materialized H/E/F matrices; the path is then
recovered with the exact affine traceback shared with the reference
implementation.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE, TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import AlignmentError
from repro.align.alignment import Alignment
from repro.align.profile import build_profile
from repro.align.reference import DPMatrices, _traceback, best_cell
from repro.align.rowscan import row_step
from repro.align.scoring import ScoringScheme
from repro.sequences.sequence import N_CODE, Sequence


def dp_matrices(codes0: np.ndarray, codes1: np.ndarray, scheme: ScoringScheme,
                *, local: bool, start_gap: int = TYPE_MATCH) -> DPMatrices:
    """Full H/E/F matrices via vectorized rows (row loop only, no cell loop)."""
    codes0 = np.ascontiguousarray(codes0, dtype=np.uint8)
    codes1 = np.ascontiguousarray(codes1, dtype=np.uint8)
    m, n = codes0.size, codes1.size
    if m == 0 or n == 0:
        raise AlignmentError("cannot align empty sequences")
    gext = SCORE_DTYPE(scheme.gap_ext)
    gfirst = SCORE_DTYPE(scheme.gap_first)
    ext_ramp = np.arange(n + 1, dtype=SCORE_DTYPE) * gext

    H = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    E = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    F = np.empty((m + 1, n + 1), dtype=SCORE_DTYPE)
    E[0] = NEG_INF
    F[0] = NEG_INF
    if local:
        H[0] = 0
    else:
        H[0, 0] = 0
        if start_gap == TYPE_GAP_S0:
            E[0, 0] = 0
            E[0, 1:] = -ext_ramp[1:]
        else:
            E[0, 1:] = -(gfirst + ext_ramp[:-1])
        H[0, 1:] = E[0, 1:]
        if start_gap == TYPE_GAP_S1:
            F[0, 0] = 0

    sub_lut = build_profile(scheme, codes1)
    egap = gfirst + ext_ramp[:-1]
    X = np.empty(n + 1, dtype=SCORE_DTYPE)
    T = np.empty(n + 1, dtype=SCORE_DTYPE)
    for i in range(1, m + 1):
        row_step(H[i - 1], F[i - 1], H[i], E[i], F[i], X, T,
                 sub_lut[codes0[i - 1]], gext, gfirst, ext_ramp, egap, local)
    return DPMatrices(H, E, F)


def _sub_matrix(codes0: np.ndarray, codes1: np.ndarray,
                scheme: ScoringScheme) -> np.ndarray:
    eq = codes0[:, None] == codes1[None, :]
    eq &= (codes0 != N_CODE)[:, None]
    return np.where(eq, SCORE_DTYPE(scheme.match), SCORE_DTYPE(scheme.mismatch))


def local_align(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                scheme: ScoringScheme) -> tuple[Alignment, int]:
    """Optimal local alignment and its score (vectorized full matrix)."""
    codes0 = s0.codes if isinstance(s0, Sequence) else np.asarray(s0, np.uint8)
    codes1 = s1.codes if isinstance(s1, Sequence) else np.asarray(s1, np.uint8)
    mats = dp_matrices(codes0, codes1, scheme, local=True)
    score, (i, j) = best_cell(mats.H)
    sub = _sub_matrix(codes0, codes1, scheme)
    return _traceback(mats, sub, scheme, i, j, TYPE_MATCH, local=True), score


def global_align(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                 scheme: ScoringScheme, *, start_gap: int = TYPE_MATCH,
                 end_gap: int = TYPE_MATCH) -> tuple[Alignment, int]:
    """Optimal global alignment with boundary gap states; returns (path, score).

    The score is read from H, E, or F at (m, n) according to ``end_gap``
    (the gap continues into the next partition, which waives its opening).
    """
    codes0 = s0.codes if isinstance(s0, Sequence) else np.asarray(s0, np.uint8)
    codes1 = s1.codes if isinstance(s1, Sequence) else np.asarray(s1, np.uint8)
    mats = dp_matrices(codes0, codes1, scheme, local=False, start_gap=start_gap)
    m, n = codes0.size, codes1.size
    if end_gap == TYPE_MATCH:
        score = int(mats.H[m, n])
    elif end_gap == TYPE_GAP_S0:
        score = int(mats.E[m, n])
    elif end_gap == TYPE_GAP_S1:
        score = int(mats.F[m, n])
    else:
        raise AlignmentError(f"invalid end_gap {end_gap!r}")
    sub = _sub_matrix(codes0, codes1, scheme)
    path = _traceback(mats, sub, scheme, m, n, end_gap, local=False)
    return path, score
