"""RowSweeper vs the per-cell reference implementation, and the bounded
doubling E scan vs the serial one it replaces on wide local rows."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import SCORE_DTYPE, TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
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
        sw = run_sweep(s0, s1, scheme, local=True, save_rows=[8, 16, 33])
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
            RowSweeper(s0.codes, s1.codes, scheme, tap_columns=[99])
        with pytest.raises(ConfigError):
            RowSweeper(s0.codes, s1.codes, scheme, start_gap=7)

    def test_n_code_never_matches(self, scheme):
        from repro.sequences.sequence import Sequence
        s0 = Sequence.from_text("NNNN")
        s1 = Sequence.from_text("NNNN")
        sw = run_sweep(s0, s1, scheme, local=True, track_best=True)
        assert sw.best == 0


# ------------------------------------------------------- bounded E scan
FLOOR = rowscan._SCAN_MIN_WIDTH


def _doubles(bound, gext, width) -> bool:
    """Whether a bounded row of ``width`` columns takes the doubling scan
    (the rule stated in the rowscan module docstring)."""
    cap = min(rowscan._SCAN_MAX_STEPS, width // FLOOR + 1)
    return width >= FLOOR and (bound // gext).bit_length() <= cap


class TestBoundedGapScan:
    @settings(max_examples=120, deadline=None)
    @given(width=st.sampled_from([FLOOR - 1, FLOOR, FLOOR + 1,
                                  2 * FLOOR + 5, 9 * FLOOR + 1]),
           lanes=st.sampled_from([None, 3]),
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
        window edge decide the result."""
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
        # An unbounded (global or seeded) row always scans serially.
        T.fill(-7)
        assert _gap_scan(X, T, E, ramp, SCORE_DTYPE(gext), False) is None
        np.testing.assert_array_equal(T, expect)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sweep_crosses_paths_bit_identical(self, monkeypatch, scheme):
        """Unrelated early rows keep the bound small (doubling scan); the
        near-identical tail drives it past the step cap (serial scan).
        Every observable matches a sweep with the doubling path off."""
        rng = np.random.default_rng(99)
        n, m0, m1 = 2 * FLOOR, 16, 40
        codes1 = random_dna(n, rng, "cols").codes
        tail = codes1[900:900 + m1].copy()
        tail[::11] = (tail[::11] + 1) % 4
        codes0 = np.concatenate([random_dna(m0, rng, "rows").codes, tail])
        kwargs = dict(local=True, track_best=True, save_rows=[3, m0, m0 + m1],
                      tap_columns=np.array([0, 1, 905, n]),
                      watch_value=3 * scheme.match)

        paths = []
        real_scan = rowscan._gap_scan

        def spy(X, T, E, ramp, gext, bounded):
            bound = real_scan(X, T, E, ramp, gext, bounded)
            paths.append(_doubles(bound, int(gext), X.shape[-1]))
            return bound

        with monkeypatch.context() as patch:
            patch.setattr(rowscan, "_gap_scan", spy)
            fast = RowSweeper(codes0, codes1, scheme, **kwargs)
            while not fast.done:
                fast.advance(7)
        assert paths[0] and not paths[-1], paths
        monkeypatch.setattr(rowscan, "_SCAN_MAX_STEPS", -1)
        slow = RowSweeper(codes0, codes1, scheme, **kwargs).run()
        assert_sweeps_identical(slow, fast)

    def test_lanes_above_floor_match_serial_lanes(self, monkeypatch, scheme):
        """A K-lane local batch wider than the floor — ragged widths, one
        near-identical lane — lands on the serially scanned lanes."""
        rng = np.random.default_rng(7)
        shapes = [(12, FLOOR + 40), (20, FLOOR + 700), (9, 2 * FLOOR + 1)]
        pairs = [(random_dna(m, rng, "r").codes, random_dna(n, rng, "c").codes)
                 for m, n in shapes]
        pairs[1] = (pairs[1][1][300:320].copy(), pairs[1][1])
        kwargs = dict(local=True, track_best=True, tap_columns=np.array([0, 5]))
        lanes = [RowSweeper(c0, c1, scheme, **kwargs) for c0, c1 in pairs]
        sweep_lanes(lanes)
        monkeypatch.setattr(rowscan, "_SCAN_MAX_STEPS", -1)
        for (c0, c1), lane in zip(pairs, lanes):
            assert_sweeps_identical(
                RowSweeper(c0, c1, scheme, **kwargs).run(), lane)
