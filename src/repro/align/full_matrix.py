"""Vectorized full-matrix aligner with traceback, over a lane axis.

This is the *base case* engine: Stage 5 partitions and the Myers-Miller
recursion bottom out here once a sub-problem fits comfortably in memory
(partitions are bounded by ``max_partition_size``, Section IV-F, so each
stays O(1) memory and the run O(m+n) overall).

One function, :func:`_solve_lanes`, materializes the H/E/F matrices of
many independent problems at once: the many-small-alignments-per-launch
pattern of AnySeq/GPU and SaLoBa, which
:func:`repro.align.batched.sweep_lanes` applies to linear-space sweeps.
Problems are packed deepest-first into ``(M+1, K, N+1)`` histories, so
the lanes still sweeping at row ``i`` are the prefix ``[:kact]`` and
``H[i, :kact]`` is C-contiguous, as the flat scans of
:func:`repro.align.rowscan.row_step` require; each row is one
``row_step`` over that prefix.  Row 0 carries each lane's own boundary
gap state.  A lane's rows past its own depth are never written, and its
padded columns never reach its real ones (information flows only
rightwards and downwards).  A block's substitution scores are one
``(M, K, N)`` tensor from one broadcast compare of the packed codes.

Blocks are capped by bytes, not by lane count: a block takes lanes while
its H/E/F plus scores stay within :data:`_LANE_BLOCK_BYTES`, and a lane
larger than that gets a block of its own.  Every lane of a block is
traced back, with the exact affine traceback shared with the reference
implementation, before the next block is swept, so one block is alive
at a time.  :func:`global_align` is the lane form; :func:`dp_matrices`
and :func:`local_align` are its K = 1 calls.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE, TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import AlignmentError
from repro.align.alignment import Alignment
from repro.align.reference import DPMatrices, _traceback, best_cell
from repro.align.rowscan import row_step, zero_row
from repro.align.scoring import ScoringScheme
from repro.sequences.sequence import N_CODE, Sequence

#: Most bytes of H/E/F history plus substitution scores one lane block
#: holds.  Stage 5's 964 lanes of at most 31 x 31 (``huge-pair``, seed 0)
#: would hold 15.6 MB as one block; in 1 MiB blocks (8 of them) their DP
#: took 22 ms, against 24 ms as one block and 38 ms in 256 KiB blocks
#: (2-vCPU Xeon host, NumPy 2.4).
_LANE_BLOCK_BYTES = 1 << 20

_GAP_STATES = (TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1)


def _sub_scores(rows: np.ndarray, cols: np.ndarray,
                scheme: ScoringScheme) -> np.ndarray:
    """Substitution scores of ``rows`` against ``cols``, broadcast
    against each other; an N base never matches (as in ``build_profile``)."""
    eq = rows == cols
    eq &= rows != N_CODE
    return np.where(eq, SCORE_DTYPE(scheme.match), SCORE_DTYPE(scheme.mismatch))


def _block_bytes(m: int, k: int, n: int) -> int:
    return 12 * (m + 1) * k * (n + 1) + 4 * m * k * n


def _plan_blocks(shapes: list[tuple[int, int]]) -> list[list[int]]:
    """Problem indices, deepest first, grouped into byte-capped blocks."""
    order = sorted(range(len(shapes)), key=lambda k: -shapes[k][0])
    blocks: list[list[int]] = []
    depth = width = 0
    for k in order:
        m, n = shapes[k]
        if blocks and _block_bytes(depth, len(blocks[-1]) + 1,
                                   max(width, n)) <= _LANE_BLOCK_BYTES:
            blocks[-1].append(k)
            width = max(width, n)
        else:
            blocks.append([k])
            depth, width = m, n
    return blocks


def _sweep_block(lanes, scheme: ScoringScheme, local: bool, finish) -> list:
    """Sweep one block of ``lanes`` (as :func:`_lane` returns them,
    deepest first) and return ``finish(lane, mats, sub)`` of each lane,
    where ``mats`` and the ``(m, n)`` scores ``sub`` are views into the
    block's ``(M+1, K, N+1)`` histories and ``(M, K, N)`` scores."""
    K = len(lanes)
    depths = np.array([c0.size for c0, *_ in lanes])
    M = int(depths[0])
    N = max(c1.size for _, c1, *_ in lanes)
    rows = np.full((M, K), N_CODE, dtype=np.uint8)
    cols = np.full((K, N), N_CODE, dtype=np.uint8)
    for k, (c0, c1, *_) in enumerate(lanes):
        rows[:c0.size, k] = c0
        cols[k, :c1.size] = c1
    sub = _sub_scores(rows[:, :, None], cols[None], scheme)

    gext = SCORE_DTYPE(scheme.gap_ext)
    gfirst = SCORE_DTYPE(scheme.gap_first)
    ext_ramp = np.arange(N + 1, dtype=SCORE_DTYPE) * gext
    egap = gfirst + ext_ramp[:-1]
    H = np.empty((M + 1, K, N + 1), dtype=SCORE_DTYPE)
    E = np.empty_like(H)
    F = np.empty_like(H)
    E[0] = NEG_INF
    F[0] = NEG_INF
    if local:
        H[0] = 0
    else:
        start = np.array([lane[2] for lane in lanes])
        waived = start == TYPE_GAP_S0
        # A gap continuing through (0, 0) extends at G_ext only.
        E[0, :, 1:] = np.where(waived[:, None], -ext_ramp[1:], -egap)
        E[0, waived, 0] = 0
        H[0] = E[0]
        H[0, :, 0] = 0
        F[0, start == TYPE_GAP_S1, 0] = 0

    zero = zero_row((K, N + 1), local)
    X = np.empty((K, N + 1), dtype=SCORE_DTYPE)
    T = np.empty_like(X)
    # Lanes still sweeping row i: the first kact[i - 1].
    kact = np.searchsorted(-depths, -np.arange(1, M + 1), side="right")
    for i in range(1, M + 1):
        k = int(kact[i - 1])
        row_step(H[i - 1, :k], F[i - 1, :k], H[i, :k], E[i, :k], F[i, :k],
                 X[:k], T[:k], sub[i - 1, :k], gext, gfirst, ext_ramp, egap,
                 None if zero is None else zero[:k])

    out = []
    for k, lane in enumerate(lanes):
        m, n = lane[0].size, lane[1].size
        mats = DPMatrices(H[:m + 1, k, :n + 1], E[:m + 1, k, :n + 1],
                          F[:m + 1, k, :n + 1])
        out.append(finish(lane, mats, sub[:m, k, :n]))
    return out


def _solve_lanes(lanes, scheme: ScoringScheme, finish, *, local: bool) -> list:
    """``finish(lane, mats, sub)`` of every lane, in order.

    ``lanes`` are as :func:`_lane` returns them.  Each block is swept and
    finished before the next is allocated, so only a result that keeps
    its views keeps its block alive.
    """
    results = [None] * len(lanes)
    for block in _plan_blocks([(c0.size, c1.size) for c0, c1, *_ in lanes]):
        done = _sweep_block([lanes[k] for k in block], scheme, local, finish)
        for k, result in zip(block, done):
            results[k] = result
    return results


def _lane(codes0, codes1, start_gap: int = TYPE_MATCH,
          end_gap: int = TYPE_MATCH):
    """One validated problem ``(codes0, codes1, start_gap, end_gap)``:
    contiguous uint8 codes, no empty side, known gap states."""
    codes0 = np.ascontiguousarray(codes0, dtype=np.uint8)
    codes1 = np.ascontiguousarray(codes1, dtype=np.uint8)
    if codes0.size == 0 or codes1.size == 0:
        raise AlignmentError("cannot align empty sequences")
    for name, state in (("start_gap", start_gap), ("end_gap", end_gap)):
        if state not in _GAP_STATES:
            raise AlignmentError(f"invalid {name} {state!r}")
    return codes0, codes1, start_gap, end_gap


def _codes(s: Sequence | np.ndarray) -> np.ndarray:
    return s.codes if isinstance(s, Sequence) else s


def dp_matrices(codes0: np.ndarray, codes1: np.ndarray, scheme: ScoringScheme,
                *, local: bool, start_gap: int = TYPE_MATCH) -> DPMatrices:
    """Full H/E/F matrices via vectorized rows (row loop only, no cell loop)."""
    [mats] = _solve_lanes([_lane(codes0, codes1, start_gap)], scheme,
                          lambda lane, mats, sub: mats, local=local)
    return mats


def local_align(s0: Sequence | np.ndarray, s1: Sequence | np.ndarray,
                scheme: ScoringScheme) -> tuple[Alignment, int]:
    """Optimal local alignment and its score (vectorized full matrix)."""
    def finish(lane, mats, sub):
        score, (i, j) = best_cell(mats.H)
        return _traceback(mats, sub, scheme, i, j, TYPE_MATCH, local=True), score

    [solved] = _solve_lanes([_lane(_codes(s0), _codes(s1))], scheme, finish,
                            local=True)
    return solved


def global_align(problems, scheme: ScoringScheme) -> list[tuple[Alignment, int]]:
    """Optimal global alignments with boundary gap states, as fused lanes.

    ``problems`` is a list of ``(codes0, codes1, start_gap, end_gap)``
    (the shape :func:`repro.align.myers_miller.find_midpoints` takes,
    less the goal); a single pair is a one-element list.  Returns one
    ``(path, score)`` per problem, in order.  Each score is read from H,
    E or F at ``(m, n)`` according to ``end_gap`` (the gap continues into
    the next partition, which waives its opening).
    """
    lanes = [_lane(*problem) for problem in problems]

    def finish(lane, mats, sub):
        end_gap = lane[3]
        m, n = sub.shape
        # TYPE_MATCH, TYPE_GAP_S0 and TYPE_GAP_S1 index H, E and F.
        score = int((mats.H, mats.E, mats.F)[end_gap][m, n])
        return _traceback(mats, sub, scheme, m, n, end_gap, local=False), score

    return _solve_lanes(lanes, scheme, finish, local=False)
