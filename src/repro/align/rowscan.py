"""Linear-space vectorized row sweep (the hot kernel of every stage).

One object, :class:`RowSweeper`, implements the forward Gotoh recurrence
row by row in O(n) memory with **no Python loop over cells**: per row, the
F update and the diagonal contribution are element-wise, and the in-row E
recurrence — the only true serial dependency — is resolved with a running
maximum:

    E(i,j) = max_{k<j} ( X(i,k) - G_first - (j-1-k) * G_ext )
           = max_{k<j} ( X(i,k) + k*G_ext )  -  G_first - (j-1)*G_ext

where ``X`` collects every non-E source of H (diagonal, F, the local-zero
floor, and the column-0 boundary).  Replacing H by X inside the scan is
valid because opening a new gap *inside* an existing gap never wins when
``G_first >= G_ext`` (asserted by :class:`ScoringScheme`).

NumPy runs ``maximum.accumulate`` as a serial loop, about 3 ns per
cell against about 0.2 ns for a wide element-wise pass of the row
(NumPy 2.4 on a 2-vCPU Xeon host), so :func:`_gap_scan` recasts it as
wide passes wherever that pays.  Its building block is the doubling
step ``T'(j) = max(T(j), T(j-d))`` (with ``T'(j) = T(j)`` for
``j < d``): ``s`` steps with ``d = 1, 2, 4, ...`` turn ``T`` into its
window maximum over the ``2^s`` columns ending at each ``j``, clipped
at column 0.

A local row bounds its own scan.  There every ``X >= 0``, so with
``T(k) = X(k) + k*G_ext`` and ``M = max X``, a source ``k`` can reach
column ``j`` only when

    T(k) >= T(j)  =>  (j-k) * G_ext <= X(k) - X(j) <= M
                  =>  j - k < reach = M // G_ext + 1.

The running maximum of ``T`` is therefore a window maximum of width
``reach``, and ``ceil(log2 reach)`` doubling steps compute it exactly.
A row at least ``_SCAN_MIN_WIDTH`` columns wide takes that path when it
needs no more steps than its width affords (one per ``_SCAN_MIN_WIDTH``
columns, plus one, at most ``_SCAN_MAX_STEPS``).

Every other row — global sweeps and edge-seeded tiles, whose score
range spans about ``G_ext * n``, and local rows whose reach is too long
— takes an exact two-round block scan once it holds at least
``_BLOCK_MIN_CELLS`` cells.  With ``B = 2^s`` (``s = _BLOCK_STEPS``):

1. ``s`` doubling steps make each block end (columns ``B-1, 2B-1, ...``)
   the maximum of its own block;
2. one ``maximum.accumulate`` over the strided view of the block ends,
   ``1/B`` of the row, makes each of them the exact prefix maximum;
3. ``s`` more doubling steps give the prefix maximum everywhere: every
   ``B``-column window ending at ``j`` holds exactly one block end
   ``e`` (or is clipped at column 0), whose value is the prefix maximum
   up to ``e``, and the window maxima of round 1 cover ``e+1 .. j``.

Smaller rows keep the serial scan, which the block scan does not beat
below that floor.  Both constant pairs come from
``benchmarks/bench_gap_scan.py``, which times every scan by width and
lane shape.  All three scans compute the same maxima, so every
observable is bit-identical whichever one a row takes.

The doubling passes run over the flattened row or ``(K, n+1)`` lane
block: a shift by ``d`` leaks the previous lane's last ``d`` columns
into each lane's first ``d``, exactly the columns each step then
restores (``T'(j) = T(j)`` for ``j < d``), and one flat pass costs a
third of a pass over column-shifted 2-D slices.  The Smith-Waterman
zero floor likewise runs against an all-zero array of the row's shape,
because NumPy's int32 ``maximum`` has a SIMD loop for two arrays but
not for an array and a scalar (4 µs against 16 µs on a 20K-column row,
same host).

A pruning sweep (Stage 1's, through ``prune_bound``) computes each
wide row only over a *window* that can still hold an optimal path.  No
path through cell ``(i, j)`` gains more than ``match * min(m-i, n-j)``
after it, so a cell with

    H(i,j) + match * min(m-i, n-j)  <  T = max(best so far, L)

lies on no optimal path when ``L`` is the exact score of some
alignment.  Such a cell is *dead*: it reads ``H = 0`` and
``E = F = -inf``, never above its true values.  A cell on an optimal
path passes the test, so by induction along the path it is computed
exactly; the best score, its cell, and every special-row cell an
optimal path crosses keep their unpruned values.  Row ``i``'s window
runs from the previous row's first live cell to one past its last,
widened to ``[1, z]`` while a fresh alignment starting in the row can
still reach ``T`` (columns ``j <= z``), and past its right end by the
closed-form horizontal gap ``E(b+k) = e0 - (k-1) * G_ext`` for as long
as that could stay live.  Columns that leave the window are filled dead.
The live test is two compares into one preallocated mask — the first
live cell against ``match * (m-i)``, the last against ``match * (n-j)``,
each a valid bound and together the exact one — and two ``argmax``
calls; nothing is allocated per row.  A row whose prunable part (the
columns right of ``z``) is narrower than ``_PRUNE_MIN_WIDTH`` keeps the
full-row path with no test: a narrow matrix never pays per-row
bookkeeping, and a short local hit only in its last rows, where no
fresh start can still reach the best score.  The width is where
``benchmarks/bench_gap_scan.py``'s pruning table has the windowed path
catch up with the full row.

The row body lives in exactly one place, :func:`row_step`, which runs
over arrays of shape ``(..., n+1)``: the same code advances one pair
(:class:`RowSweeper`), a ``(K, n+1)`` block of lanes
(:func:`repro.align.batched.sweep_lanes`), an edge-seeded tile
(:func:`repro.align.tiled.tile_sweep`), a row of a block of
materialized lane matrices (:func:`repro.align.full_matrix.global_align`
and its K = 1 calls) and a semi-global matrix row with a free left edge
(:mod:`repro.align.semiglobal`).

Every sweep the pipeline performs maps onto this kernel:

* Stage 1 is a local forward sweep (rows = S0).
* Reverse sweeps (Stages 2 and 4) are forward sweeps over reversed
  sequences.
* Column-major ("orthogonal", Sections IV-C/D) sweeps are forward sweeps
  of the transposed problem, where the roles of E and F swap.

The sweeper exposes exactly the artifacts the stages need: the running
H/E/F rows, best-score tracking (Stage 1), special-row snapshots of (H, F)
(the SRA format, Section IV-B), per-row column taps of (H, E) (goal-based
matching against an orthogonal special line), and a watch value (Stage 2's
start-point detection).  Callers drive it in strips via :meth:`advance`,
which is what makes goal-based early termination a *real* saving rather
than bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE, TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import ConfigError
from repro.align.profile import query_profile
from repro.align.scoring import ScoringScheme


#: Narrowest row (``n + 1`` columns) that may take the doubling scan.
_SCAN_MIN_WIDTH = 2048
#: Most doubling steps any row takes instead of the serial scan.
_SCAN_MAX_STEPS = 10
#: Fewest cells (``X.size``) a row or lane block needs for the block scan.
_BLOCK_MIN_CELLS = 12288
#: Doubling steps per round of the block scan (blocks of ``2**s`` columns).
_BLOCK_STEPS = 2
#: Fewest prunable columns (right of the fresh-start region) a row of a
#: pruning sweep needs before it takes the window and its live test.
_PRUNE_MIN_WIDTH = 4096


def _doubling(a, b, steps):
    """Run ``steps`` doubling steps (``d = 1, 2, 4, ...``) from ``a``,
    ping-ponging with ``b``; returns the buffer holding the result.

    Each step is one flat pass over the C-contiguous block; the head copy
    both keeps ``j < d`` and overwrites what the flat shift leaked there
    from the previous lane.
    """
    fa, fb = a.reshape(-1), b.reshape(-1)
    d = 1
    for _ in range(steps):
        np.maximum(fa[d:], fa[:-d], out=fb[d:])
        b[..., :d] = a[..., :d]
        a, b, fa, fb = b, a, fb, fa
        d *= 2
    return a


def _gap_scan(X, T, E, ext_ramp, gext, bounded):
    """Write the running maximum of ``X + ext_ramp`` along the last axis
    into ``T``; returns ``max(X)`` when it was computed, else ``None``.

    Picks the bounded doubling scan, the block scan or the serial scan
    of the module docstring from the row's width, cell count and — for
    ``bounded`` rows (local, no seeded boundary, so ``X >= 0``) at least
    ``_SCAN_MIN_WIDTH`` wide — its reach.  The wide scans ping-pong
    between ``T`` and ``E`` — free until the caller derives E from
    ``T`` — starting in whichever buffer makes the last step land in
    ``T``, so no scan allocates.
    """
    width = X.shape[-1]
    bound = int(X.max()) if bounded and width >= _SCAN_MIN_WIDTH else None
    if bound is not None:
        steps = (bound // int(gext)).bit_length()
        if steps <= min(_SCAN_MAX_STEPS, width // _SCAN_MIN_WIDTH + 1):
            a, b = (T, E) if steps % 2 == 0 else (E, T)
            np.add(X, ext_ramp, out=a)
            _doubling(a, b, steps)
            return bound
    np.add(X, ext_ramp, out=T)
    if X.size < _BLOCK_MIN_CELLS:
        np.maximum.accumulate(T, axis=-1, out=T)
        return bound
    # 2 * _BLOCK_STEPS steps in all: the result lands back in T.
    s = _BLOCK_STEPS
    a = _doubling(T, E, s)
    ends = a[..., (1 << s) - 1::1 << s]
    np.maximum.accumulate(ends, axis=-1, out=ends)
    _doubling(a, E if a is T else T, s)
    return bound


def zero_row(shape, local: bool) -> np.ndarray | None:
    """The ``zero`` operand :func:`row_step` floors a sweep's rows
    against: a read-only all-zero array of the row's ``shape`` when
    ``local``, else ``None``.  A sweep allocates it once."""
    if not local:
        return None
    zero = np.zeros(shape, dtype=SCORE_DTYPE)
    zero.flags.writeable = False
    return zero


def row_step(Hp, Fp, H, E, F, X, T, sub, gext, gfirst, ext_ramp, egap,
             zero, left=None, gopen=None) -> int | None:
    """Advance one Gotoh row over arrays of shape ``(..., n+1)``.

    ``Hp``/``Fp`` are the previous row; in-place callers pass ``H``/``F``
    again (the previous H is read before ``H`` is written).  ``X`` and
    ``T`` are scratch of the row's shape, ``sub`` the ``(..., n)``
    substitution scores, ``ext_ramp`` = ``arange(n+1) * G_ext`` and
    ``egap`` = ``G_first + ext_ramp[:-1]``.  ``T`` and ``E`` must be
    C-contiguous — a 1-D row, a matrix row, or a leading ``[:k]`` slice
    of a C-contiguous lane block — because the wide E scans run over
    their flattened views.

    ``zero`` makes the row local: it is the all-zero, read-only array of
    ``X``'s shape (see :func:`zero_row`) that the Smith-Waterman floor
    runs against, and it also pins ``F[..., 0]`` to -inf (column 0 is
    never a vertical-gap source in a local sweep).  A global row passes
    ``None``.  Column 0 is the sweep's own boundary unless
    ``left=(x, e, h)`` seeds it (a tile's incoming edge): ``x`` is the H
    source the in-row scan starts from, ``e`` the incoming
    horizontal-gap value — it enters the scan as a virtual source
    ``e + G_open`` (``gopen``) — and ``h`` the H the boundary column
    exposes; the zero floor then applies only to ``X[..., 1:]``.

    The E scan is chosen from the row alone (module docstring): a local,
    unseeded row at least ``_SCAN_MIN_WIDTH`` wide whose reach needs few
    enough steps takes the bounded doubling scan; any other row or lane
    block of at least ``_BLOCK_MIN_CELLS`` cells the two-round block
    scan; the rest the serial ``maximum.accumulate``.

    Returns ``max(X)`` when the E scan computed it — a local, unseeded
    row at least ``_SCAN_MIN_WIDTH`` wide, whichever scan it took — and
    ``None`` otherwise.  In such a row it equals ``H.max()`` (every
    ``E <= max(X) - G_first``), so a caller may use it as the row
    maximum; over lanes it bounds every lane at once.
    """
    # F (vertical) update — purely element-wise, includes column 0.
    # X/T are free at this point, so the update runs entirely in the
    # caller's preallocated scratch (no per-row temporaries).
    np.subtract(Fp, gext, out=X)
    np.subtract(Hp, gfirst, out=T)
    np.maximum(X, T, out=F)
    # X: every non-E source of H.
    Xc = X[..., 1:]
    np.add(Hp[..., :-1], sub, out=Xc)
    np.maximum(Xc, F[..., 1:], out=Xc)
    local = zero is not None
    if local:
        # Floors column 0 too (written next), so the operands stay whole
        # contiguous rows.
        np.maximum(X, zero, out=X)
        F[..., 0] = NEG_INF
    if left is not None:
        # The incoming gap joins the scan as a virtual source at column 0
        # (ext_ramp[0] == 0); H[..., 0] is overwritten below.
        X[..., 0] = np.maximum(left[0], left[1] + gopen)
    elif local:
        X[..., 0] = 0
    else:
        X[..., 0] = F[..., 0]
    # E via the running maximum of X + ext_ramp.
    bound = _gap_scan(X, T, E, ext_ramp, gext, local and left is None)
    np.subtract(T[..., :-1], egap, out=E[..., 1:])
    E[..., 0] = NEG_INF if left is None else left[1]
    np.maximum(X, E, out=H)
    if left is not None:
        H[..., 0] = left[2]
    return bound


class RowSweeper:
    """Incremental linear-space forward DP sweep.

    Args:
        codes0: encoded bases laid along the rows (one row per base).
        codes1: encoded bases laid along the columns.
        scheme: affine scoring parameters.
        local: use the Smith-Waterman zero floor and zero boundaries;
            otherwise the global (Needleman-Wunsch) boundary is used.
        start_gap: boundary gap state for global sweeps — TYPE_GAP_S0
            waives the opening of a horizontal gap continuing through
            (0, 0), TYPE_GAP_S1 of a vertical one (Section IV-A's
            "gap opening must not be computed twice").
        forced: require the path to *begin* with the ``start_gap`` run
            (H(0,0) is seeded to -inf so only gap-continuing paths are
            finite).  Reverse sweeps of partitions whose end crosspoint is
            typed use this to exclude tails that would end in the wrong
            state; the resulting values are uniformly ``true + G_open``.
        track_best: maintain the running best score and position (Stage 1).
        watch_value: if set, :attr:`watch_hit` records the first cell whose
            H equals this value (Stage 2's start-point detection).
        tap_columns: column indices whose (H, E) values are recorded after
            every row (matching against an orthogonal special line).
        save_rows: absolute row indices whose (H, F) rows are snapshotted
            (the special rows flushed to the SRA).
        prune_bound: the exact score of some alignment of the pair, a
            lower bound on the best local score (Stage 1's chain bound).
            Rows whose prunable part is wide are then computed over
            their window only (module docstring); a saved row is exact
            on every cell an optimal path crosses and at or below the
            unpruned row elsewhere.  Needs ``local`` and ``track_best``,
            and no taps or watch value.
        tracer: optional :class:`repro.telemetry.Tracer`; when set, every
            :meth:`advance` call is wrapped in a ``sweep.advance`` span
            (rows/cells attributes).  ``None`` (the default) keeps the
            hot path free of telemetry branches beyond one ``is None``.
    """

    def __init__(self, codes0: np.ndarray, codes1: np.ndarray,
                 scheme: ScoringScheme, *, local: bool = False,
                 start_gap: int = TYPE_MATCH, forced: bool = False,
                 track_best: bool = False,
                 watch_value: int | None = None,
                 tap_columns: np.ndarray | None = None,
                 save_rows: np.ndarray | None = None,
                 prune_bound: int | None = None,
                 tracer=None) -> None:
        self.tracer = tracer
        self.codes0 = np.ascontiguousarray(codes0, dtype=np.uint8)
        self.codes1 = np.ascontiguousarray(codes1, dtype=np.uint8)
        if self.codes0.size == 0 or self.codes1.size == 0:
            raise ConfigError("cannot sweep empty sequences")
        self.scheme = scheme
        self.local = bool(local)
        if start_gap not in (TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1):
            raise ConfigError(f"invalid start_gap {start_gap!r}")
        if local and start_gap != TYPE_MATCH:
            raise ConfigError("local sweeps cannot carry a boundary gap state")
        if forced and start_gap == TYPE_MATCH:
            raise ConfigError("forced sweeps need a gap-typed start_gap")
        self.start_gap = start_gap
        self.forced = bool(forced)
        self.m = int(self.codes0.size)
        self.n = int(self.codes1.size)
        self.i = 0  # rows completed (0 = only the boundary row exists)
        self.cells = 0
        self.cells_skipped = 0  # dead cells a pruning sweep never computed

        gext = scheme.gap_ext
        gfirst = scheme.gap_first
        n = self.n
        self._idx = np.arange(n + 1, dtype=SCORE_DTYPE)
        self._ext_ramp = self._idx * SCORE_DTYPE(gext)

        # Row 0 boundary.
        self.H = np.empty(n + 1, dtype=SCORE_DTYPE)
        self.E = np.full(n + 1, NEG_INF, dtype=SCORE_DTYPE)
        self.F = np.full(n + 1, NEG_INF, dtype=SCORE_DTYPE)
        if self.local:
            self.H[:] = 0
        else:
            self.H[0] = NEG_INF if forced else 0
            if start_gap == TYPE_GAP_S0:
                # E(0,0) seeded: the boundary run extends at G_ext only.
                self.E[0] = 0
                self.E[1:] = -self._ext_ramp[1:]
            elif forced:
                # Only the seeded F(0,0) is finite; row 0 is unreachable.
                self.E[1:] = NEG_INF
            else:
                self.E[1:] = -(SCORE_DTYPE(gfirst) + self._ext_ramp[:-1])
            self.H[1:] = self.E[1:]
            if start_gap == TYPE_GAP_S1:
                self.F[0] = 0

        self.track_best = bool(track_best)
        self.best = int(self.H.max()) if track_best else 0
        self.best_pos: tuple[int, int] = (0, int(np.argmax(self.H))) if track_best else (0, 0)

        self.watch_value = watch_value
        self.watch_hit: tuple[int, int] | None = None
        if watch_value is not None:
            hits = np.flatnonzero(self.H == watch_value)
            if hits.size:
                self.watch_hit = (0, int(hits[0]))

        self._taps = (np.ascontiguousarray(tap_columns, dtype=np.int64)
                      if tap_columns is not None and len(tap_columns) else None)
        if self._taps is not None:
            if self._taps.min() < 0 or self._taps.max() > n:
                raise ConfigError("tap columns out of range")
            self.tap_H = np.empty((self.m + 1, self._taps.size), dtype=SCORE_DTYPE)
            self.tap_E = np.empty((self.m + 1, self._taps.size), dtype=SCORE_DTYPE)
            self.tap_H[0] = self.H[self._taps]
            self.tap_E[0] = self.E[self._taps]

        # A set of Python ints, not np.unique: NumPy 2.4's unique imports
        # numpy.ma, which would land in every forked job child's Stage 1.
        save = ({int(row) for row in save_rows} if save_rows is not None
                else set())
        if save and (min(save) < 1 or max(save) > self.m):
            raise ConfigError("save rows out of range [1, m]")
        self._save_rows = save
        self.saved: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        # Per-row scratch buffers, allocated once.  _advance reuses X and
        # T for the F update too, so the hot loop allocates nothing.
        self._X = np.empty(n + 1, dtype=SCORE_DTYPE)
        self._T = np.empty(n + 1, dtype=SCORE_DTYPE)
        self._egap = SCORE_DTYPE(gfirst) + self._ext_ramp[:-1]
        self._zero = zero_row(n + 1, self.local)

        # Substitution scores as a per-base lookup: row i uses the vector
        # for codes0[i], so each row costs one fancy-index, not a compare.
        # Shared across sweepers over the same (scheme, columns) — see
        # repro.align.profile — and therefore read-only.
        self._sub_lut = query_profile(scheme, self.codes1)

        self.prune_bound = None if prune_bound is None else int(prune_bound)
        if self.prune_bound is not None:
            if (not (self.local and self.track_best) or self._taps is not None
                    or watch_value is not None):
                raise ConfigError("a pruning sweep is local, tracks its best "
                                  "and has no taps or watch value")
            # Row 0 reads dead (H = 0, E = F = -inf): no cell is live yet
            # and none holds a computed value.  (lo, hi) = (n + 1, 0) is
            # the empty range.
            self._live = self._dirty = (n + 1, 0)
            # match * (n - j): what a path through column j can still gain
            # at most (when it is the nearer edge).
            self._rest = (n - self._idx) * SCORE_DTYPE(scheme.match)
            self._need = np.empty(n + 1, dtype=SCORE_DTYPE)
            self._need_for = None   # the threshold _need was built for
            self._mask = np.empty(n + 1, dtype=bool)
            # Reversed views, for the scan from a window's right end.
            self._H_rev, self._need_rev = self.H[::-1], self._need[::-1]
            self._set_full_until()

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.i >= self.m

    @property
    def cells_computed(self) -> int:
        """Cells actually computed: :attr:`cells` less the dead cells a
        pruning sweep skipped."""
        return self.cells - self.cells_skipped

    def advance(self, nrows: int | None = None) -> int:
        """Process up to ``nrows`` further rows; returns the count processed.

        Each row is one :func:`row_step` — over the row's window only,
        for a pruning sweep's wide rows; see the module docstring for the
        E scan, which rows take which of its three paths, and the window.
        """
        if nrows is None:
            nrows = self.m - self.i
        nrows = min(nrows, self.m - self.i)
        if nrows <= 0:
            return 0
        if self.tracer is not None:
            with self.tracer.span("sweep.advance", rows=nrows,
                                  from_row=self.i, n=self.n) as span:
                done = self._advance(nrows)
                span.set(cells=done * self.n)
            return done
        return self._advance(nrows)

    def _advance(self, nrows: int) -> int:
        scheme = self.scheme
        gext = SCORE_DTYPE(scheme.gap_ext)
        gfirst = SCORE_DTYPE(scheme.gap_first)
        H, E, F = self.H, self.E, self.F
        ext_ramp = self._ext_ramp
        egap = self._egap
        X, T = self._X, self._T
        zero = self._zero
        prune = self.prune_bound is not None
        stop = self.i + nrows
        while self.i < stop:
            i = self.i + 1
            sub = self._sub_lut[self.codes0[i - 1]]
            self.i = i
            if prune and i > self._full_until:
                self._window_row(i, sub, gext, gfirst)
            else:
                if prune:
                    self._live = self._dirty = (1, self.n)
                bound = row_step(H, F, H, E, F, X, T, sub, gext, gfirst,
                                 ext_ramp, egap, zero)
                if self.track_best or self.watch_value is not None:
                    row_max = int(H.max()) if bound is None else bound
                    if self.track_best and row_max > self.best:
                        self.best = row_max
                        self.best_pos = (i, int(np.argmax(H)))
                        if prune:
                            self._set_full_until()
                    if (self.watch_value is not None
                            and self.watch_hit is None
                            and row_max >= self.watch_value):
                        hits = np.flatnonzero(H == self.watch_value)
                        if hits.size:
                            self.watch_hit = (i, int(hits[0]))
            if self._taps is not None:
                self.tap_H[i] = H[self._taps]
                self.tap_E[i] = E[self._taps]
            if i in self._save_rows:
                self.saved[i] = (H.copy(), F.copy())
        self.cells += nrows * self.n
        return nrows

    def _set_full_until(self) -> None:
        """Find the last row that keeps the full-row path at the current
        threshold.  A fresh alignment whose first match lies in row ``i``
        reaches ``thr`` only from columns ``1..z``, with ``z = n - q`` while
        ``m - i >= q`` and no column after that; the row's prunable part
        is ``n - z``.  It only grows as ``i`` and ``thr`` do, so once a
        row takes the window every later one does."""
        thr = max(self.best, self.prune_bound)
        q = -(-thr // self.scheme.match) - 1
        if self.n < _PRUNE_MIN_WIDTH:
            self._full_until = self.m
        elif q >= _PRUNE_MIN_WIDTH:
            self._full_until = 0
        else:
            self._full_until = self.m - max(q, 0)

    def _window_row(self, i: int, sub, gext, gfirst) -> None:
        """Row ``i`` of a pruning sweep, computed over its window only
        (module docstring)."""
        n, match = self.n, self.scheme.match
        thr = max(self.best, self.prune_bound)
        rest = match * (self.m - i)
        q = -(-thr // match) - 1
        z = n - max(q, 0) if self.m - i >= q else 0
        H, E, F = self.H, self.E, self.F
        lo, hi = self._live
        a, b = lo, min(n, hi + 1)
        if z > 0:
            a, b = 1, max(b, z)
        dlo, dhi = self._dirty
        if a > b:
            self._kill(dlo, dhi)
            self._live = self._dirty = (n + 1, 0)
            self.cells_skipped += n
            return
        # Columns a-1 .. b: row_step writes column a-1 dead (H = 0,
        # E = F = -inf), the boundary of a local row.
        w = b - a + 2
        Hs, Fs = H[a - 1:b + 1], F[a - 1:b + 1]
        row_max = row_step(Hs, Fs, Hs, E[a - 1:b + 1], Fs, self._X[:w],
                           self._T[:w], sub[a - 1:b], gext, gfirst,
                           self._ext_ramp[:w], self._egap[:w - 1],
                           self._zero[:w])
        e = b
        if b < n:
            # E past the window, sourced from the window alone, falls by
            # G_ext per column: extend while it could stay live.
            gap_ext = self.scheme.gap_ext
            e0 = max(int(E[b]) - gap_ext, int(H[b]) - self.scheme.gap_first)
            room = e0 + rest - thr
            if room >= 0:
                e = min(n, b + room // gap_ext + 1)
                ext = slice(b + 1, e + 1)
                np.subtract(e0, self._ext_ramp[:e - b], out=E[ext])
                np.maximum(E[ext], 0, out=H[ext])
                F[ext] = NEG_INF
        if dlo < a - 1:
            self._kill(dlo, a - 2)
        if dhi > e:
            self._kill(e + 1, dhi)
        self._dirty = (a, e)
        self.cells_skipped += n - (e - a + 1)

        # The extension never tops H[b], so the window's maximum is the
        # row's.
        Hw = H[a:e + 1]
        if row_max is None:
            row_max = int(Hw.max())
        if row_max > self.best:
            self.best = row_max
            self.best_pos = (i, a + int(Hw.argmax()))
        # The first live cell against the row bound match * (m - i), the
        # last one (scanning a reversed view) against match * (n - j):
        # each is a valid bound, and together they give the exact test.
        self._live = (n + 1, 0)
        mask = self._mask[:e - a + 1]
        np.greater_equal(Hw, thr - rest, out=mask)
        first = int(mask.argmax())
        if mask[first]:
            if self._need_for != thr:
                np.subtract(thr, self._rest, out=self._need)
                self._need_for = thr
            np.greater_equal(self._H_rev[n - e:n + 1 - a],
                             self._need_rev[n - e:n + 1 - a], out=mask)
            last = e - int(mask.argmax())
            if mask[e - last] and a + first <= last:
                self._live = (a + first, last)

    def _kill(self, lo: int, hi: int) -> None:
        """Make columns ``lo..hi`` read dead."""
        self.H[lo:hi + 1] = 0
        self.E[lo:hi + 1] = NEG_INF
        self.F[lo:hi + 1] = NEG_INF

    def run(self) -> "RowSweeper":
        """Process all remaining rows and return self (convenience)."""
        self.advance()
        return self

    # ------------------------------------------------------------------
    # checkpointing (Stage 1 runs for hours at paper scale; Section V's
    # 18.5-hour run motivates crash recovery)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the sweep's linear-space state."""
        state = {
            "i": self.i, "cells": self.cells,
            "cells_skipped": self.cells_skipped,
            "H": self.H.copy(), "E": self.E.copy(), "F": self.F.copy(),
            "best": self.best, "best_i": self.best_pos[0],
            "best_j": self.best_pos[1],
        }
        if self.prune_bound is not None:
            state["bound"] = self.prune_bound
            state["window"] = np.array(self._live + self._dirty)
        return state

    def load_state(self, state: dict) -> None:
        """Resume from a snapshot taken by :meth:`state_dict`.

        Only valid on a freshly-constructed sweeper over the same
        sequences, scheme and options; saved-row snapshots taken before
        the checkpoint are the caller's responsibility (Stage 1 flushes
        them to the SRA as they appear and fsyncs them before each
        checkpoint).
        """
        i = int(state["i"])
        if not 0 <= i <= self.m:
            raise ConfigError(f"checkpoint row {i} outside [0, {self.m}]")
        for name in ("H", "E", "F"):
            arr = np.asarray(state[name], dtype=SCORE_DTYPE)
            if arr.shape != self.H.shape:
                raise ConfigError("checkpoint row width does not match")
            getattr(self, name)[:] = arr
        self.i = i
        self.cells = int(state["cells"])
        self.cells_skipped = int(state.get("cells_skipped", 0))
        self.best = int(state["best"])
        self.best_pos = (int(state["best_i"]), int(state["best_j"]))
        if self.prune_bound is not None:
            if "window" in state:
                lo, hi, dlo, dhi = (int(v) for v in state["window"])
                self._live, self._dirty = (lo, hi), (dlo, dhi)
                self.prune_bound = int(state["bound"])
            else:
                # An unpruned snapshot: every column holds its exact value.
                self._live = self._dirty = (1, self.n)
            self._set_full_until()
