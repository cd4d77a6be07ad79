"""Batched row sweep: K independent pairs per NumPy dispatch.

The tracked ledger is blunt about host-side kernel economics: per-call
dispatch overhead dominates small matrices, which is exactly the cost a
GPU grid amortizes by fusing many alignments into one launch (AnySeq/GPU)
and balancing ragged lengths so no lane idles (SaLoBa).  This module
applies both ideas to host NumPy.  :func:`sweep_lanes` advances K
independent :class:`~repro.align.rowscan.RowSweeper` lanes through
*one* set of row operations with a leading batch axis — a ``(K, N+1)``
vector op costs barely more than a ``(N+1,)`` one, so the per-pair
dispatch count drops by a factor of K.

Bit-identity per lane is engineered the same way the serial kernel's
padding-free algebra composes:

* lanes are packed into a ``(K, N+1)`` state padded to the widest lane;
  padded columns evolve by the same recurrence over sentinel values and
  can never contaminate the real region, because information flows
  strictly left-to-right within a row (the prefix-max E scan) and
  top-to-bottom across rows;
* lanes shorter than the deepest lane go *inactive* once their rows run
  out: lanes are packed deepest-first, so the active set at any step is
  a contiguous prefix of the batch and every row operation runs on a
  plain ``[:kact]`` slice — rows past the prefix are simply never
  written, freezing each lane at its own final row while the rest of
  the batch keeps sweeping (the "all-padding tail rows" case), with
  none of the masked-ufunc (``where=``) overhead;
* global boundary regimes (plain, gap-seeded, forced) need no special
  cases — they live entirely in each lane's packed H/E/F state; only the
  Smith-Waterman zero floor is a per-row branch, so every lane of one
  batch shares ``local`` as well as the scoring scheme;
* best/watch/saved-rows/taps fold per lane with the serial kernel's
  exact tie-break rules, reading only the lane's real columns.

:func:`plan_buckets` bounds padding waste SaLoBa-style: lanes sorted by
descending remaining work are greedily grouped while the padded-cell
overhead stays under a budget, so one huge pair cannot drag a swarm of
tiny ones through its padding.

Each fused row is :func:`~repro.align.rowscan.row_step` over the
``(kact, N+1)`` active block — the same body the single-pair sweeper
runs, so the lane path is held to the serial kernel's bit-identity
contract by construction (and by the conformance suite's K=1 lane).
"""

from __future__ import annotations

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE
from repro.errors import ConfigError
from repro.align.rowscan import row_step


def sweep_lanes(lanes, nrows: int | None = None) -> int:
    """Advance every lane by up to ``nrows`` rows (all remaining rows
    when ``None``) in one fused batch of row dispatches.

    Every lane must share one scoring scheme (the row operations use its
    penalties as scalars) and one ``local`` flag (the zero floor is a
    per-row branch); global boundary regimes, lengths, and tracking
    options may differ per lane.  Updates each lane in place — H/E/F,
    ``i``/``cells``, best/watch, saved rows, taps — exactly as that many
    ``advance`` calls on the serial kernel would have.  Returns the
    total rows processed across lanes.
    """
    if not lanes:
        return 0
    scheme, local = lanes[0].scheme, lanes[0].local
    for lane in lanes[1:]:
        if lane.scheme != scheme:
            raise ConfigError(
                "batched lanes must share one scoring scheme; bucket by "
                "scheme first (plan_buckets does)")
        if lane.local != local:
            raise ConfigError(
                "batched lanes must share one local/global regime; bucket "
                "by regime first (plan_buckets does)")
    todo = [lane.m - lane.i for lane in lanes]
    if nrows is not None:
        if nrows < 0:
            raise ConfigError("nrows must be non-negative")
        todo = [min(nrows, t) for t in todo]
    steps = np.array(todo, dtype=np.int64)
    S = int(steps.max())
    if S <= 0:
        return 0
    # Deepest lanes first: the active set at any step is then a prefix
    # of the batch, so "only active lanes advance" is a contiguous
    # ``[:kact]`` slice instead of a boolean ``where=`` mask on every
    # persistent-state write — same freeze semantics, none of the
    # masked-ufunc overhead.  Packing order is invisible per lane.
    order = np.argsort(-steps, kind="stable")
    lanes = [lanes[int(j)] for j in order]
    steps = steps[order]
    K = len(lanes)
    n_vec = np.array([lane.n for lane in lanes], dtype=np.int64)
    N = int(n_vec.max())
    i0 = [lane.i for lane in lanes]
    # Active lanes at step s (1-based): the first kact_per[s - 1].
    kact_per = np.searchsorted(-steps, -np.arange(1, S + 1), side="right")

    gext = SCORE_DTYPE(scheme.gap_ext)
    gfirst = SCORE_DTYPE(scheme.gap_first)
    ext_ramp = np.arange(N + 1, dtype=SCORE_DTYPE) * gext
    egap = gfirst + ext_ramp[:-1]

    # Packed batch state.  Lane k owns columns 0..n_k; padded columns
    # start at the sentinel and evolve harmlessly (see module docstring).
    Hb = np.full((K, N + 1), NEG_INF, dtype=SCORE_DTYPE)
    Eb = np.full((K, N + 1), NEG_INF, dtype=SCORE_DTYPE)
    Fb = np.full((K, N + 1), NEG_INF, dtype=SCORE_DTYPE)
    # Query profiles stacked flat so one np.take per row gathers every
    # lane's substitution vector: row 5*k + c scores base c on lane k.
    lut = np.full((K * 5, N), SCORE_DTYPE(scheme.mismatch),
                  dtype=SCORE_DTYPE)
    flat_codes = np.zeros((K, S), dtype=np.intp)
    for k, lane in enumerate(lanes):
        w = lane.n + 1
        Hb[k, :w] = lane.H
        Eb[k, :w] = lane.E
        Fb[k, :w] = lane.F
        lut[5 * k:5 * k + 5, :lane.n] = lane._sub_lut
        sk = int(steps[k])
        if sk:
            flat_codes[k, :sk] = (
                lane.codes0[lane.i:lane.i + sk].astype(np.intp) + 5 * k)

    track_vec = np.array([lane.track_best for lane in lanes], dtype=bool)
    watch_pend = np.array([lane.watch_value is not None
                           and lane.watch_hit is None for lane in lanes],
                          dtype=bool)
    need_rowmax = bool(track_vec.any() or watch_pend.any())
    if need_rowmax:
        cols = np.arange(N + 1, dtype=np.int64)
        colmask = cols[None, :] <= n_vec[:, None]
        colmask_full = bool(colmask.all())
        best_vec = np.array([lane.best for lane in lanes], dtype=np.int64)
        watch_vec = np.array([-1 if lane.watch_value is None
                              else lane.watch_value for lane in lanes],
                             dtype=np.int64)
        Mb = np.empty((K, N + 1), dtype=SCORE_DTYPE)
        rowmax = np.empty(K, dtype=SCORE_DTYPE)

    save_plan: dict[int, list[tuple[int, int]]] = {}
    for k, lane in enumerate(lanes):
        for r in lane._save_rows:
            off = r - i0[k]
            if 1 <= off <= steps[k]:
                save_plan.setdefault(int(off), []).append((k, int(r)))
    # Every lane's taps as flat offsets into the packed state, so one
    # gather per row fills an (S, total_taps) buffer; each lane's slice
    # is scattered into its tap_H/tap_E once, after the loop.
    tap_lanes = [(k, lane) for k, lane in enumerate(lanes)
                 if lane._taps is not None]
    if tap_lanes:
        tap_idx = np.concatenate([k * (N + 1) + lane._taps
                                  for k, lane in tap_lanes])
        tapH_rows = np.empty((S, tap_idx.size), dtype=SCORE_DTYPE)
        tapE_rows = np.empty((S, tap_idx.size), dtype=SCORE_DTYPE)
        Hflat, Eflat = Hb.reshape(-1), Eb.reshape(-1)

    Xb = np.empty((K, N + 1), dtype=SCORE_DTYPE)
    Tb = np.empty((K, N + 1), dtype=SCORE_DTYPE)
    sub = np.empty((K, N), dtype=SCORE_DTYPE)
    for s in range(1, S + 1):
        kact = int(kact_per[s - 1])
        # Views over the active prefix; everything below row kact stays
        # frozen at its own final state.
        Hs, Fs = Hb[:kact], Fb[:kact]
        # Every lane's substitution vector in one gather.
        np.take(lut, flat_codes[:kact, s - 1], axis=0, out=sub[:kact])
        row_step(Hs, Fs, Hs, Eb[:kact], Fs, Xb[:kact], Tb[:kact],
                 sub[:kact], gext, gfirst, ext_ramp, egap, local)

        if need_rowmax:
            # Per-lane row maximum (padded columns excluded).
            if colmask_full:
                Hs.max(axis=1, out=rowmax[:kact])
            else:
                Ms = Mb[:kact]
                Ms.fill(NEG_INF)
                np.copyto(Ms, Hs, where=colmask[:kact])
                Ms.max(axis=1, out=rowmax[:kact])
            improved = np.flatnonzero(
                track_vec[:kact] & (rowmax[:kact] > best_vec[:kact]))
            for k in improved:
                lane = lanes[k]
                lane.best = int(rowmax[k])
                best_vec[k] = lane.best
                lane.best_pos = (i0[k] + s,
                                 int(np.argmax(Hb[k, :lane.n + 1])))
            maybe_hit = np.flatnonzero(
                watch_pend[:kact] & (rowmax[:kact] >= watch_vec[:kact]))
            for k in maybe_hit:
                lane = lanes[k]
                hits = np.flatnonzero(
                    Hb[k, :lane.n + 1] == lane.watch_value)
                if hits.size:
                    lane.watch_hit = (i0[k] + s, int(hits[0]))
                    watch_pend[k] = False
        if tap_lanes:
            # Frozen lanes are gathered too; their columns are dropped
            # by the scatter below.
            np.take(Hflat, tap_idx, out=tapH_rows[s - 1])
            np.take(Eflat, tap_idx, out=tapE_rows[s - 1])
        for k, r in save_plan.get(s, ()):
            lane = lanes[k]
            w = lane.n + 1
            lane.saved[r] = (Hb[k, :w].copy(), Fb[k, :w].copy())

    off = 0
    for k, lane in tap_lanes:
        sk, t = int(steps[k]), lane._taps.size
        rows = slice(i0[k] + 1, i0[k] + sk + 1)
        lane.tap_H[rows] = tapH_rows[:sk, off:off + t]
        lane.tap_E[rows] = tapE_rows[:sk, off:off + t]
        off += t

    for k, lane in enumerate(lanes):
        sk = int(steps[k])
        if sk <= 0:
            continue
        w = lane.n + 1
        lane.H[:] = Hb[k, :w]
        lane.E[:] = Eb[k, :w]
        lane.F[:] = Fb[k, :w]
        lane.i += sk
        lane.cells += sk * lane.n
    return int(steps.sum())


def plan_buckets(lanes, *, max_lanes: int = 64,
                 max_waste: float = 0.5) -> list[list[int]]:
    """Group lane indices into padding-bounded batches (SaLoBa-style).

    Lanes are sorted by descending remaining rows (then columns) and
    greedily packed while the bucket's padding waste — the fraction of
    padded cells that are not real work — stays at or under
    ``max_waste`` and the bucket holds at most ``max_lanes`` lanes.
    Lanes with different scoring schemes or local/global regimes never
    share a bucket; finished lanes are skipped.  Deterministic for a
    given lane list.
    """
    if max_lanes < 1:
        raise ConfigError("max_lanes must be positive")
    if not 0.0 <= max_waste < 1.0:
        raise ConfigError("max_waste must be in [0, 1)")
    order = sorted(range(len(lanes)),
                   key=lambda k: (-(lanes[k].m - lanes[k].i),
                                  -lanes[k].n, k))
    buckets: list[list[int]] = []
    cur: list[int] = []
    smax = nmax = cells = 0
    cur_key = None
    for k in order:
        lane = lanes[k]
        s = lane.m - lane.i
        if s <= 0:
            continue
        key = (lane.scheme, lane.local)
        if cur and len(cur) < max_lanes and key == cur_key:
            new_nmax = max(nmax, lane.n)
            new_cells = cells + s * lane.n
            padded = (len(cur) + 1) * smax * new_nmax
            if 1.0 - new_cells / padded <= max_waste:
                cur.append(k)
                nmax, cells = new_nmax, new_cells
                continue
        if cur:
            buckets.append(cur)
        cur = [k]
        smax, nmax, cells = s, lane.n, s * lane.n
        cur_key = key
    if cur:
        buckets.append(cur)
    return buckets


def sweep_batched(lanes, *, max_lanes: int = 64, max_waste: float = 0.5,
                  metrics=None) -> dict:
    """Run every lane to completion through length-bucketed fused sweeps.

    The one-call form the service micro-batcher and the benchmark use:
    plan buckets, sweep each, and (optionally) publish ``kernel.batch.*``
    telemetry.  Returns honest batch statistics::

        {"lanes", "buckets", "cells", "padded_cells", "padding_waste"}
    """
    buckets = plan_buckets(lanes, max_lanes=max_lanes, max_waste=max_waste)
    real = padded = 0
    for bucket in buckets:
        group = [lanes[k] for k in bucket]
        depth = max(lane.m - lane.i for lane in group)
        width = max(lane.n for lane in group)
        real += sum((lane.m - lane.i) * lane.n for lane in group)
        padded += len(group) * depth * width
        if metrics is not None:
            metrics.histogram("kernel.batch.size").observe(len(group))
        sweep_lanes(group)
    waste = 1.0 - real / padded if padded else 0.0
    if metrics is not None:
        metrics.counter("kernel.batch.dispatches").add(len(buckets))
        metrics.counter("kernel.batch.lanes").add(
            sum(len(b) for b in buckets))
        metrics.histogram("kernel.batch.padding_waste").observe(waste)
    return {"lanes": sum(len(b) for b in buckets), "buckets": len(buckets),
            "cells": real, "padded_cells": padded, "padding_waste": waste}
