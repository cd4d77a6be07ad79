"""A drop-in :class:`~repro.align.rowscan.RowSweeper` that sweeps in tiles.

:class:`ParallelRowSweeper` subclasses the serial kernel and overrides
exactly one method — ``_advance`` — replacing the row loop with a
(band x strip) tile grid scheduled along external diagonals.  Everything
the stages rely on is inherited unchanged: boundary seeding, row-0
artifacts, ``state_dict``/``load_state`` (so Stage-1 checkpoints are the
same bytes), ``saved``/``tap_H``/``watch_hit``/``best`` surfaces, and
the ``advance(nrows)`` striping contract.

Bit-identity with the serial kernel is engineered, not hoped for:

* the tile decomposition itself is exact (:mod:`repro.align.tiled`'s
  boundary-exchange algebra, property-tested against the monolith);
* strip 0 receives the sweep's own boundary column in closed form
  (:func:`~repro.parallel.wavefront.boundary_column`), including the E
  seed that makes the in-tile scan reproduce the serial seed exactly;
* ``best``/``watch_hit`` fold per *band row in row order* with the same
  strictly-greater / first-hit rules the serial row loop applies, so
  tie-breaking positions agree cell for cell;
* observed rows (special-row snapshots, the post-window H/E/F state)
  are band cuts, captured from the horizontal bus eagerly at each
  tile's barrier — before the next diagonal overwrites the bus slot.

Between ``advance`` windows the full row state lives in the inherited
``H``/``E``/``F`` arrays, which is also what makes ``load_state`` work
for free: every window re-seeds the bus from them.
"""

from __future__ import annotations

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE, TYPE_MATCH
from repro.errors import ConfigError
from repro.align.rowscan import RowSweeper
from repro.align.scoring import ScoringScheme
from repro.parallel.wavefront import (WavefrontExecutor, boundary_column,
                                      compute_tile, plan_strip_cols)

#: Below this matrix size the sweep is not worth a process round-trip per
#: diagonal; :func:`make_sweeper` falls back to the serial kernel.
MIN_PARALLEL_CELLS = 1 << 15


class ParallelRowSweeper(RowSweeper):
    """Tile-grid sweep behind the serial sweeper's exact interface.

    Args (beyond :class:`RowSweeper`'s):
        executor: a :class:`~repro.parallel.wavefront.WavefrontExecutor`,
            or ``None`` to compute every tile inline (same schedule, no
            processes — the mode the equivalence tests exercise).
        strip_cols: column-strip width; defaults to a width that feeds
            the pool (:func:`~repro.parallel.wavefront.plan_strip_cols`).
        band_rows: band height within one ``advance`` window; defaults
            to a height that puts ~2 bands per worker in flight.
        metrics: optional :class:`~repro.telemetry.metrics.MetricsRegistry`
            receiving ``wavefront.*`` occupancy / tile-time / bus-traffic
            instruments.

    Only final-column taps are supported (``tap_columns == [n]``, which
    is every tap the pipeline performs — the goal-matching stages read
    the orthogonal edge); anything else raises ``ConfigError``.
    """

    def __init__(self, codes0: np.ndarray, codes1: np.ndarray,
                 scheme: ScoringScheme, *, local: bool = False,
                 start_gap: int = TYPE_MATCH, forced: bool = False,
                 executor: WavefrontExecutor | None = None,
                 strip_cols: int | None = None,
                 band_rows: int | None = None,
                 metrics=None, **kwargs) -> None:
        super().__init__(codes0, codes1, scheme, local=local,
                         start_gap=start_gap, forced=forced, **kwargs)
        if self._taps is not None and (
                len(self._taps) != 1 or int(self._taps[0]) != self.n):
            raise ConfigError("parallel sweeps only tap the final column")
        self._executor = executor
        self._metrics = metrics if metrics is not None else (
            executor.metrics if executor is not None else None)
        workers = executor.workers if executor is not None else 1
        self._workers = workers
        strip = int(strip_cols) if strip_cols else plan_strip_cols(self.n, workers)
        if strip < 1:
            raise ConfigError("strip width must be positive")
        self._col_cuts = list(range(0, self.n, strip)) + [self.n]
        self._strips = len(self._col_cuts) - 1
        self._band_rows = int(band_rows) if band_rows else None
        self._boundary_H, self._boundary_E, self._boundary_X = boundary_column(
            self.m, scheme, local=local, start_gap=start_gap, forced=forced)

        wmax = max(self._col_cuts[s + 1] - self._col_cuts[s]
                   for s in range(self._strips))
        self._owned: list = []
        if executor is not None:
            codes0_sh = executor.share(self.codes0)
            codes1_sh = executor.share(self.codes1)
            hbus = [executor.alloc((self._strips, wmax + 1), SCORE_DTYPE)
                    for _ in range(3)]
            self._owned = [codes0_sh, codes1_sh, *hbus]
            self._refs = {"codes0": codes0_sh.ref, "codes1": codes1_sh.ref,
                          "hbus_H": hbus[0].ref, "hbus_E": hbus[1].ref,
                          "hbus_F": hbus[2].ref}
            self._arrays = {"codes0": codes0_sh.array,
                            "codes1": codes1_sh.array,
                            "hbus_H": hbus[0].array, "hbus_E": hbus[1].array,
                            "hbus_F": hbus[2].array}
        else:
            self._refs = {}
            self._arrays = {"codes0": self.codes0, "codes1": self.codes1,
                            "hbus_H": np.empty((self._strips, wmax + 1), SCORE_DTYPE),
                            "hbus_E": np.empty((self._strips, wmax + 1), SCORE_DTYPE),
                            "hbus_F": np.empty((self._strips, wmax + 1), SCORE_DTYPE)}
        self._closed = False

    # ------------------------------------------------------------------
    def _advance(self, nrows: int) -> int:
        i0, stop = self.i, self.i + nrows
        col_cuts, strips = self._col_cuts, self._strips
        n = self.n
        bt = self._band_rows or max(1, -(-nrows // max(2, 2 * self._workers)))
        cuts = set(range(i0 + bt, stop, bt))
        cuts.update(r for r in self._save_rows if i0 < r < stop)
        cuts.add(stop)
        row_cuts = [i0] + sorted(cuts)
        bands = len(row_cuts) - 1
        hmax = max(row_cuts[b + 1] - row_cuts[b] for b in range(bands))
        observed = {r for r in row_cuts[1:] if r in self._save_rows}
        observed.add(stop)
        staging = {r: (np.empty(n + 1, SCORE_DTYPE),
                       np.empty(n + 1, SCORE_DTYPE),
                       np.empty(n + 1, SCORE_DTYPE)) for r in observed}

        # Seed the horizontal bus with the current row state; the bus
        # ends the window holding the new state.
        hH, hE, hF = (self._arrays["hbus_H"], self._arrays["hbus_E"],
                      self._arrays["hbus_F"])
        for s in range(strips):
            c0, c1 = col_cuts[s], col_cuts[s + 1]
            hH[s, :c1 - c0 + 1] = self.H[c0:c1 + 1]
            hE[s, :c1 - c0 + 1] = self.E[c0:c1 + 1]
            hF[s, :c1 - c0 + 1] = self.F[c0:c1 + 1]

        executor = self._executor
        vbus_owned: list = []
        if executor is not None:
            vbus = [executor.alloc((bands, hmax), SCORE_DTYPE) for _ in range(2)]
            vbus_owned = vbus
            vH, vE = vbus[0].array, vbus[1].array
            refs = dict(self._refs)
            refs["vbus_H"] = vbus[0].ref
            refs["vbus_E"] = vbus[1].ref
        else:
            vH = np.empty((bands, hmax), SCORE_DTYPE)
            vE = np.empty((bands, hmax), SCORE_DTYPE)
            refs = None
        arrays = dict(self._arrays)
        arrays["vbus_H"] = vH
        arrays["vbus_E"] = vE

        met = self._metrics
        try:
            outcomes: dict[int, list] = {}
            for d in range(bands + strips - 1):
                coords = [(b, d - b)
                          for b in range(max(0, d - strips + 1),
                                         min(bands, d + 1))]
                tasks = []
                for b, s in coords:
                    r0, r1 = row_cuts[b], row_cuts[b + 1]
                    task = {"s": s, "b": b, "r0": r0, "r1": r1,
                            "c0": col_cuts[s], "c1": col_cuts[s + 1],
                            "local": self.local,
                            "track_best": self.track_best,
                            "watch": (self.watch_value
                                      if self.watch_hit is None else None),
                            "scheme": self.scheme,
                            "lH": self._boundary_H[r0:r1] if s == 0 else None,
                            "lE": self._boundary_E[r0:r1] if s == 0 else None,
                            "lX": self._boundary_X[r0:r1] if s == 0 else None}
                    if refs is not None:
                        task["refs"] = refs
                    tasks.append(task)
                if executor is not None:
                    if met is not None:
                        with met.histogram("wavefront.diagonal_seconds").time():
                            results = executor.run_tiles(tasks)
                    else:
                        results = executor.run_tiles(tasks)
                else:
                    results = [compute_tile(task, arrays) for task in tasks]
                if met is not None:
                    met.histogram("wavefront.occupancy").observe(
                        len(coords) / self._workers)
                for (b, s), res in zip(coords, results):
                    outcomes.setdefault(b, [None] * strips)[s] = res
                    r1 = row_cuts[b + 1]
                    c0, c1 = col_cuts[s], col_cuts[s + 1]
                    if met is not None:
                        met.counter("wavefront.tiles").add(1)
                        met.histogram("wavefront.tile_seconds").observe(
                            res["seconds"])
                        met.counter("wavefront.hbus_bytes").add(12 * (c1 - c0 + 1))
                        met.counter("wavefront.vbus_bytes").add(
                            8 * (r1 - row_cuts[b]))
                    if r1 in observed:
                        # Eager capture: this bus slot is overwritten by
                        # the next diagonal's tile in the same strip.
                        bufH, bufE, bufF = staging[r1]
                        lo = c0 if s == 0 else c0 + 1
                        bufH[lo:c1 + 1] = hH[s, lo - c0:c1 - c0 + 1]
                        bufE[lo:c1 + 1] = hE[s, lo - c0:c1 - c0 + 1]
                        bufF[lo:c1 + 1] = hF[s, lo - c0:c1 - c0 + 1]
                # Rows finish strictly in order: band b completes once
                # its final strip (diagonal b + strips - 1) lands.
                b_done = d - (strips - 1)
                if 0 <= b_done < bands:
                    self._fold_band(b_done, row_cuts,
                                    outcomes.pop(b_done), vH, vE)
        finally:
            if executor is not None:
                executor.release(vbus_owned)

        for r in sorted(observed):
            bufH, bufE, bufF = staging[r]
            if r in self._save_rows:
                self.saved[r] = (bufH if r != stop else bufH.copy(),
                                 bufF if r != stop else bufF.copy())
        bufH, bufE, bufF = staging[stop]
        self.H[:] = bufH
        self.E[:] = bufE
        self.F[:] = bufF
        self.E[0] = NEG_INF  # the serial kernel pins E(i, 0) every row
        self.i = stop
        self.cells += nrows * self.n
        if self.i >= self.m:
            self.close()
        return nrows

    def _fold_band(self, b: int, row_cuts: list[int], results: list,
                   vH: np.ndarray, vE: np.ndarray) -> None:
        """Merge one completed band row, in row order, exactly as the
        serial loop would have: strictly-greater best updates with
        row-major tie-breaks, first watch hit wins, final-column taps."""
        r0, r1 = row_cuts[b], row_cuts[b + 1]
        h = r1 - r0
        if self._taps is not None:
            self.tap_H[r0 + 1:r1 + 1, 0] = vH[b, :h]
            self.tap_E[r0 + 1:r1 + 1, 0] = vE[b, :h]
        if self.track_best:
            # Column 0 is no tile's cell; its best candidate is the
            # boundary ramp's first (largest) row.
            candidates = [(int(self._boundary_H[r0]), r0 + 1, 0)]
            for s, res in enumerate(results):
                if res["best_pos"] != (0, 0):
                    bi, bj = res["best_pos"]
                    candidates.append((res["best"], r0 + bi,
                                       self._col_cuts[s] + bj))
            top = max(c[0] for c in candidates)
            if top > self.best:
                self.best, *pos = min(
                    (c for c in candidates if c[0] == top),
                    key=lambda c: (c[1], c[2]))
                self.best_pos = tuple(pos)
        if self.watch_value is not None and self.watch_hit is None:
            hits = []
            bound = np.flatnonzero(
                self._boundary_H[r0:r1] == self.watch_value)
            if bound.size:
                hits.append((r0 + 1 + int(bound[0]), 0))
            for s, res in enumerate(results):
                if res["watch_hit"] is not None:
                    hi, hj = res["watch_hit"]
                    hits.append((r0 + hi, self._col_cuts[s] + hj))
            if hits:
                self.watch_hit = min(hits)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink this sweep's shared segments (idempotent; automatic
        once the sweep completes)."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None and self._owned:
            self._executor.release(self._owned)
            self._owned = []

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def make_sweeper(codes0: np.ndarray, codes1: np.ndarray,
                 scheme: ScoringScheme, *,
                 executor: WavefrontExecutor | None = None,
                 metrics=None, strip_cols: int | None = None,
                 **kwargs) -> RowSweeper:
    """Build the right sweeper for a sweep: a :class:`ParallelRowSweeper`
    when an executor is attached and the matrix is worth the dispatch,
    the serial :class:`~repro.align.rowscan.RowSweeper` otherwise.

    The fallbacks are exact, not approximate — the tile grid is
    bit-identical to the serial kernel — so callers never need to care
    which one they got.  They do get a *signal*, though: when an
    executor was requested but the sweep falls back to the serial
    kernel, the ``kernel.fallback`` counter (plus
    ``kernel.fallback.<reason>``) ticks on ``metrics``.
    """
    if executor is not None:
        m = int(np.asarray(codes0).size)
        n = int(np.asarray(codes1).size)
        taps = kwargs.get("tap_columns")
        flat = None if taps is None else np.asarray(taps).ravel()
        taps_ok = flat is None or (flat.size == 1 and int(flat[0]) == n)
        reason = None
        if m * n < MIN_PARALLEL_CELLS:
            reason = "small_matrix"
        elif not taps_ok:
            reason = "interior_taps"
        if reason is None:
            return ParallelRowSweeper(
                codes0, codes1, scheme, executor=executor, metrics=metrics,
                strip_cols=strip_cols, **kwargs)
        if metrics is not None:
            metrics.counter("kernel.fallback").add(1)
            metrics.counter(f"kernel.fallback.{reason}").add(1)
    return RowSweeper(codes0, codes1, scheme, **kwargs)
