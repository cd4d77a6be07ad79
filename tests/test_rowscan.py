"""RowSweeper vs the per-cell reference implementation, and the wide E
scans — the bounded doubling scan of local rows and the two-round block
scan of every other wide row — vs the serial scan they replace."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import (NEG_INF, SCORE_DTYPE, TYPE_GAP_S0, TYPE_GAP_S1,
                             TYPE_MATCH)
from repro.errors import ConfigError
from repro.align import reference, rowscan
from repro.align.batched import sweep_lanes
from repro.align.rowscan import RowSweeper, _gap_scan
from repro.align.scoring import PAPER_SCHEME, ScoringScheme
from repro.sequences.synth import random_dna

from tests.conftest import SCHEMES, assert_sweeps_identical, make_pair

dna = st.text(alphabet="ACGT", min_size=1, max_size=48)


def run_sweep(s0, s1, scheme, **kw):
    sw = RowSweeper(s0.codes, s1.codes, scheme, **kw)
    sw.run()
    return sw


class TestAgainstReference:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("local", [True, False])
    def test_final_rows_match(self, rng, scheme, local):
        s0, s1 = make_pair(rng, 37, 53)
        ref = (reference.sw_matrices if local else reference.global_matrices)(
            s0, s1, scheme)
        sw = run_sweep(s0, s1, scheme, local=local)
        np.testing.assert_array_equal(sw.H, ref.H[-1])
        np.testing.assert_array_equal(sw.E, ref.E[-1])
        np.testing.assert_array_equal(sw.F, ref.F[-1])

    @pytest.mark.parametrize("start_gap", [TYPE_GAP_S0, TYPE_GAP_S1])
    def test_start_gap_boundaries(self, rng, scheme, start_gap):
        s0, s1 = make_pair(rng, 20, 31)
        ref = reference.global_matrices(s0, s1, scheme, start_gap=start_gap)
        sw = run_sweep(s0, s1, scheme, start_gap=start_gap)
        np.testing.assert_array_equal(sw.H, ref.H[-1])
        np.testing.assert_array_equal(sw.E, ref.E[-1])
        np.testing.assert_array_equal(sw.F, ref.F[-1])

    def test_best_tracking_matches_reference(self, rng, scheme):
        s0, s1 = make_pair(rng, 40, 40)
        ref = reference.sw_matrices(s0, s1, scheme)
        best, pos = reference.best_cell(ref.H)
        sw = run_sweep(s0, s1, scheme, local=True, track_best=True)
        assert sw.best == best
        # Positions may differ among ties; the score at the position must match.
        i, j = sw.best_pos
        assert ref.H[i, j] == best

    @settings(max_examples=60, deadline=None)
    @given(t0=dna, t1=dna, local=st.booleans())
    def test_property_rows_match(self, t0, t1, local):
        from repro.sequences.sequence import Sequence
        s0 = Sequence.from_text(t0)
        s1 = Sequence.from_text(t1)
        ref = (reference.sw_matrices if local else reference.global_matrices)(
            s0, s1, PAPER_SCHEME)
        sw = run_sweep(s0, s1, PAPER_SCHEME, local=local)
        np.testing.assert_array_equal(sw.H, ref.H[-1])

    @settings(max_examples=25, deadline=None)
    @given(t0=dna, t1=dna,
           params=st.tuples(st.integers(1, 4), st.integers(-4, 0),
                            st.integers(1, 8), st.integers(1, 8)))
    def test_property_arbitrary_schemes(self, t0, t1, params):
        from repro.sequences.sequence import Sequence
        match, mismatch, a, b = params
        scheme = ScoringScheme(match=match, mismatch=mismatch,
                               gap_first=max(a, b), gap_ext=min(a, b))
        s0 = Sequence.from_text(t0)
        s1 = Sequence.from_text(t1)
        ref = reference.sw_matrices(s0, s1, scheme)
        sw = run_sweep(s0, s1, scheme, local=True, track_best=True)
        assert sw.best == reference.best_cell(ref.H)[0]


class TestIncrementalFeatures:
    def test_advance_in_strips_equals_one_shot(self, rng, scheme):
        s0, s1 = make_pair(rng, 50, 41)
        one = run_sweep(s0, s1, scheme, local=True)
        strip = RowSweeper(s0.codes, s1.codes, scheme, local=True)
        while not strip.done:
            strip.advance(7)
        np.testing.assert_array_equal(one.H, strip.H)
        assert strip.cells == 50 * 41

    def test_advance_past_end_is_noop(self, rng, scheme):
        s0, s1 = make_pair(rng, 5, 5)
        sw = run_sweep(s0, s1, scheme, local=True)
        assert sw.advance(10) == 0

    def test_saved_rows_match_reference(self, rng, scheme):
        s0, s1 = make_pair(rng, 33, 29)
        ref = reference.sw_matrices(s0, s1, scheme)
        # Lists, tuples and arrays are all accepted; duplicates collapse.
        for rows in ([8, 16, 33], (33, 8, 16, 8), np.array([16, 33, 8, 33])):
            sw = run_sweep(s0, s1, scheme, local=True, save_rows=rows)
            assert set(sw.saved) == {8, 16, 33}
            for r, (h, f) in sw.saved.items():
                np.testing.assert_array_equal(h, ref.H[r])
                np.testing.assert_array_equal(f, ref.F[r])

    def test_taps_record_columns(self, rng, scheme):
        s0, s1 = make_pair(rng, 21, 27)
        ref = reference.global_matrices(s0, s1, scheme)
        taps = np.array([0, 5, 27])
        sw = run_sweep(s0, s1, scheme, tap_columns=taps)
        for k, j in enumerate(taps):
            np.testing.assert_array_equal(sw.tap_H[:, k], ref.H[:, j])
            np.testing.assert_array_equal(sw.tap_E[:, k], ref.E[:, j])

    def test_watch_value_finds_cell(self, rng, scheme):
        s0, s1 = make_pair(rng, 30, 30)
        ref = reference.sw_matrices(s0, s1, scheme)
        best, (bi, bj) = reference.best_cell(ref.H)
        sw = run_sweep(s0, s1, scheme, local=True, watch_value=best)
        assert sw.watch_hit is not None
        i, j = sw.watch_hit
        assert ref.H[i, j] == best

    def test_validation_errors(self, rng, scheme):
        s0, s1 = make_pair(rng, 10, 10)
        with pytest.raises(ConfigError):
            RowSweeper(s0.codes, s1.codes, scheme, local=True,
                       start_gap=TYPE_GAP_S0)
        with pytest.raises(ConfigError):
            RowSweeper(s0.codes, s1.codes, scheme, save_rows=[0])
        with pytest.raises(ConfigError):
            RowSweeper(s0.codes, s1.codes, scheme, save_rows=np.array([11]))
        with pytest.raises(ConfigError):
            RowSweeper(s0.codes, s1.codes, scheme, tap_columns=[99])
        with pytest.raises(ConfigError):
            RowSweeper(s0.codes, s1.codes, scheme, start_gap=7)

    def test_n_code_never_matches(self, scheme):
        from repro.sequences.sequence import Sequence
        s0 = Sequence.from_text("NNNN")
        s1 = Sequence.from_text("NNNN")
        sw = run_sweep(s0, s1, scheme, local=True, track_best=True)
        assert sw.best == 0


# ------------------------------------------------------- wide E scans
FLOOR = rowscan._SCAN_MIN_WIDTH
CELLS = rowscan._BLOCK_MIN_CELLS
REGIMES = [(TYPE_MATCH, False), (TYPE_GAP_S0, False), (TYPE_GAP_S1, False),
           (TYPE_GAP_S0, True), (TYPE_GAP_S1, True)]


def _scan_path(bound, gext, shape) -> str:
    """Which E scan a row or lane block of ``shape`` takes (the rule
    stated in the rowscan module docstring): the bounded doubling scan
    when its reach needs few enough steps, else the block scan at or
    above the cell floor, else the serial scan."""
    width = shape[-1]
    if bound is not None:
        cap = min(rowscan._SCAN_MAX_STEPS, width // rowscan._SCAN_MIN_WIDTH + 1)
        if width >= rowscan._SCAN_MIN_WIDTH and (bound // gext).bit_length() <= cap:
            return "doubling"
    return ("block" if int(np.prod(shape)) >= rowscan._BLOCK_MIN_CELLS
            else "serial")


def _fast_paths_off(patch) -> None:
    """Send every row to the serial scan: the reference a fast sweep is
    held to."""
    patch.setattr(rowscan, "_SCAN_MAX_STEPS", -1)
    patch.setattr(rowscan, "_BLOCK_MIN_CELLS", sys.maxsize)


def _path_spy(patch) -> list[str]:
    """Record the E scan every row step takes from now on, told apart by
    its doubling rounds (none: serial, one: bounded doubling, two: block
    scan), and check each against the rule of :func:`_scan_path`."""
    paths = []
    rounds = []
    real_scan, real_doubling = rowscan._gap_scan, rowscan._doubling

    def doubling(*args):
        rounds.append(args[2])
        return real_doubling(*args)

    def scan(X, T, E, ramp, gext, bounded):
        rounds.clear()
        bound = real_scan(X, T, E, ramp, gext, bounded)
        paths.append(("serial", "doubling", "block")[len(rounds)])
        assert paths[-1] == _scan_path(bound, int(gext), X.shape), rounds
        return bound

    patch.setattr(rowscan, "_doubling", doubling)
    patch.setattr(rowscan, "_gap_scan", scan)
    return paths


class TestBoundedGapScan:
    @settings(max_examples=120, deadline=None)
    @given(width=st.sampled_from([FLOOR - 1, FLOOR, FLOOR + 1,
                                  2 * FLOOR + 5, 9 * FLOOR + 1]),
           lanes=st.sampled_from([None, 3, 8]),
           gext=st.integers(1, 3),
           s=st.integers(0, 11),
           offset=st.sampled_from([-1, 0, 1]),
           slack=st.integers(0, 2),
           sparse=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_serial_scan(self, width, lanes, gext, s, offset, slack,
                                sparse, seed):
        """``reach = max(X) // G_ext + 1`` lands on ``2^s - 1``, ``2^s``
        and ``2^s + 1``; sparse rows (zeros between peaks) make the
        window edge decide the result.  Lane blocks double flat, so a
        lane's head would show any leak from the previous lane's tail."""
        reach = max(1, 2 ** s + offset)
        peak = (reach - 1) * gext + min(slack, gext - 1)
        rng = np.random.default_rng(seed)
        shape = (width,) if lanes is None else (lanes, width)
        X = rng.integers(0, peak + 1, shape).astype(SCORE_DTYPE)
        if sparse:
            X[rng.random(shape) < 0.98] = 0
        X.reshape(-1)[rng.integers(X.size)] = peak
        ramp = np.arange(width, dtype=SCORE_DTYPE) * SCORE_DTYPE(gext)
        expect = np.maximum.accumulate(X + ramp, axis=-1)
        T = np.empty_like(X)
        E = np.full_like(X, -7)
        bound = _gap_scan(X, T, E, ramp, SCORE_DTYPE(gext), True)
        np.testing.assert_array_equal(T, expect)
        assert bound == (None if width < FLOOR else peak)
        # An unbounded (global or seeded) row never doubles.
        T.fill(-7)
        assert _gap_scan(X, T, E, ramp, SCORE_DTYPE(gext), False) is None
        np.testing.assert_array_equal(T, expect)

    @pytest.mark.parametrize("lanes", [2, 5])
    def test_flat_doubling_on_lane_blocks(self, monkeypatch, lanes):
        """Short-reach lane blocks, below and above the cell floor,
        double flat: every lane equals its own serial scan, lane heads
        included (a flat shift leaks the previous lane's tail there)."""
        width = 2 * FLOOR + 3
        rng = np.random.default_rng(lanes)
        X = rng.integers(0, 6, (lanes, width)).astype(SCORE_DTYPE)
        ramp = np.arange(width, dtype=SCORE_DTYPE)
        T = np.empty_like(X)
        E = np.empty_like(X)
        paths = _path_spy(monkeypatch)
        assert rowscan._gap_scan(X, T, E, ramp, SCORE_DTYPE(1), True) == 5
        assert paths == ["doubling"]
        for k in range(lanes):
            np.testing.assert_array_equal(
                T[k], np.maximum.accumulate(X[k] + ramp))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sweep_crosses_paths_bit_identical(self, monkeypatch, scheme):
        """Unrelated early rows keep the bound small (doubling scan); the
        near-identical tail drives it past the step cap (serial scan).
        Every observable matches a sweep with the fast paths off."""
        rng = np.random.default_rng(99)
        n, m0, m1 = 2 * FLOOR, 16, 40
        codes1 = random_dna(n, rng, "cols").codes
        tail = codes1[900:900 + m1].copy()
        tail[::11] = (tail[::11] + 1) % 4
        codes0 = np.concatenate([random_dna(m0, rng, "rows").codes, tail])
        kwargs = dict(local=True, track_best=True, save_rows=[3, m0, m0 + m1],
                      tap_columns=np.array([0, 1, 905, n]),
                      watch_value=3 * scheme.match)

        with monkeypatch.context() as patch:
            paths = _path_spy(patch)
            fast = RowSweeper(codes0, codes1, scheme, **kwargs)
            while not fast.done:
                fast.advance(7)
        assert paths[0] == "doubling" and paths[-1] == "serial", paths
        _fast_paths_off(monkeypatch)
        slow = RowSweeper(codes0, codes1, scheme, **kwargs).run()
        assert_sweeps_identical(slow, fast)

    def test_lanes_above_floor_match_serial_lanes(self, monkeypatch, scheme):
        """A K-lane local batch wider than the floor — ragged widths, one
        near-identical lane — crosses all three scans and lands on the
        serially scanned lanes."""
        rng = np.random.default_rng(7)
        shapes = [(20, FLOOR + 40), (24, FLOOR + 700), (30, 2 * FLOOR + 1)]
        pairs = [(random_dna(m, rng, "r").codes, random_dna(n, rng, "c").codes)
                 for m, n in shapes]
        # Its rising bound passes the step cap while all three lanes (over
        # the cell floor) and then two (under it) are active.
        pairs[1] = (pairs[1][1][300:324].copy(), pairs[1][1])
        kwargs = dict(local=True, track_best=True, tap_columns=np.array([0, 5]))
        lanes = [RowSweeper(c0, c1, scheme, **kwargs) for c0, c1 in pairs]
        with monkeypatch.context() as patch:
            paths = _path_spy(patch)
            sweep_lanes(lanes)
        assert {"doubling", "block", "serial"} <= set(paths), paths
        _fast_paths_off(monkeypatch)
        for (c0, c1), lane in zip(pairs, lanes):
            assert_sweeps_identical(
                RowSweeper(c0, c1, scheme, **kwargs).run(), lane)


class TestBlockScan:
    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from([
               (CELLS - 1,), (CELLS,), (CELLS + 1,), (CELLS + 6,),
               (2 * CELLS + 13,), (3, CELLS // 3 - 1), (3, CELLS // 3 + 2),
               (16, CELLS // 16 + 5), (7, 2 * CELLS // 7), (CELLS // 3 + 1, 3),
               (CELLS // 15, 17)]),
           s=st.integers(1, 4),
           style=st.sampled_from(["global", "local", "local-bounded"]),
           gext=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_serial_scan(self, shape, s, style, gext, seed):
        """The two-round block scan equals ``np.maximum.accumulate`` for
        every block size ``2^s`` the bench table weighs, on rows and
        lane blocks around the cell floor — widths that are not block
        multiples, tails shorter than a block, lanes narrower than one —
        over global-style rows (negative scores, -inf sentinels) and
        local ones, unbounded or with a reach past the step cap."""
        rng = np.random.default_rng(seed)
        if style == "global":
            X = rng.integers(-5000, 200, shape).astype(SCORE_DTYPE)
            X[rng.random(shape) < 0.05] = NEG_INF
        else:
            X = rng.integers(0, 1 << 16, shape).astype(SCORE_DTYPE)
            X[rng.random(shape) < 0.9] = 0
        bounded = style == "local-bounded"
        width = shape[-1]
        ramp = np.arange(width, dtype=SCORE_DTYPE) * SCORE_DTYPE(gext)
        expect = np.maximum.accumulate(X + ramp, axis=-1)
        before = X.copy()
        T = np.full_like(X, -7)
        E = np.full_like(X, 11)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rowscan, "_BLOCK_STEPS", s)
            paths = _path_spy(patch)
            bound = rowscan._gap_scan(X, T, E, ramp, SCORE_DTYPE(gext),
                                      bounded)
        np.testing.assert_array_equal(T, expect)
        np.testing.assert_array_equal(X, before)
        assert paths == ["block" if X.size >= CELLS else "serial"]
        assert bound == (int(X.max()) if bounded and width >= FLOOR
                         else None)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("start_gap,forced", REGIMES)
    def test_global_sweep_bit_identical(self, monkeypatch, scheme, start_gap,
                                        forced):
        """A global sweep wider than the cell floor takes the block scan
        on every row; every observable — taps, watch, saved rows, strips
        of 7 — matches the sweep with both fast paths off."""
        rng = np.random.default_rng(5)
        n, m = CELLS + 37, 23
        codes1 = random_dna(n, rng, "cols").codes
        codes0 = codes1[4000:4000 + m].copy()
        codes0[::5] = (codes0[::5] + 1) % 4
        kwargs = dict(start_gap=start_gap, forced=forced,
                      save_rows=[1, 8, m], tap_columns=np.array([0, 3, n]))
        with monkeypatch.context() as patch:
            _fast_paths_off(patch)
            probe = RowSweeper(codes0, codes1, scheme, **kwargs).run()
            kwargs["watch_value"] = int(probe.H[4000 + m // 2])
            slow = RowSweeper(codes0, codes1, scheme, **kwargs).run()
        paths = _path_spy(monkeypatch)
        fast = RowSweeper(codes0, codes1, scheme, **kwargs)
        while not fast.done:
            fast.advance(7)
        assert paths == ["block"] * m
        assert slow.watch_hit is not None
        assert_sweeps_identical(slow, fast)

    def test_ragged_global_lanes_match_serial_lanes(self, monkeypatch):
        """A ragged global batch with every boundary regime goes from the
        block scan to the serial scan as lanes freeze; each lane equals
        its serially scanned sweep."""
        rng = np.random.default_rng(11)
        shapes = [(14, 5200), (9, 4100), (17, 3001), (11, 4700), (6, 5000)]
        specs = []
        for (m, n), (start_gap, forced) in zip(shapes, REGIMES):
            codes1 = random_dna(n, rng, "c").codes
            codes0 = codes1[700:700 + m].copy()
            codes0[::4] = (codes0[::4] + 1) % 4
            specs.append((codes0, codes1, dict(
                start_gap=start_gap, forced=forced, track_best=True,
                save_rows=[m], tap_columns=np.array([0, 701, n]))))
        lanes = [RowSweeper(c0, c1, PAPER_SCHEME, **kw)
                 for c0, c1, kw in specs]
        with monkeypatch.context() as patch:
            paths = _path_spy(patch)
            sweep_lanes(lanes)
        assert paths[0] == "block" and paths[-1] == "serial", paths
        _fast_paths_off(monkeypatch)
        for (c0, c1, kw), lane in zip(specs, lanes):
            assert_sweeps_identical(
                RowSweeper(c0, c1, PAPER_SCHEME, **kw).run(), lane)
