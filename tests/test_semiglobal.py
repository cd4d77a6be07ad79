"""Semi-global (overlap) alignment: free leading and trailing gaps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import NEG_INF, SCORE_DTYPE
from repro.errors import AlignmentError
from repro.align import reference, rowscan
from repro.align.full_matrix import _sub_scores
from repro.align.profile import build_profile
from repro.align.scoring import PAPER_SCHEME
from repro.align.semiglobal import (_semiglobal_matrices, semiglobal_align,
                                    semiglobal_score)
from repro.sequences.sequence import Sequence
from repro.sequences.synth import random_dna

from tests.conftest import SCHEMES, make_pair

dna = st.text(alphabet="ACGT", min_size=1, max_size=32)


def frozen_semiglobal_matrices(codes0, codes1, scheme):
    """The private row body semiglobal kept before it called ``row_step``:
    free left column (X(i, 0) = 0, H(i, 0) = 0, F(i, 0) = -inf), no zero
    floor, serial E scan.  Kept as the reference the shared body must
    reproduce exactly."""
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
        X[0] = 0
        F[i, 0] = NEG_INF
        np.add(X, ext_ramp, out=T)
        np.maximum.accumulate(T, out=T)
        E[i, 1:] = T[:-1]
        E[i, 1:] -= gfirst + ext_ramp[:-1]
        E[i, 0] = NEG_INF
        np.maximum(X, E[i], out=H[i])
        H[i, 0] = 0
    return H, E, F


def assert_matches_frozen_body(codes0, codes1, scheme):
    want = frozen_semiglobal_matrices(codes0, codes1, scheme)
    got = _semiglobal_matrices(
        _sub_scores(codes0[:, None], codes1[None, :], scheme), scheme)
    for a, b in zip(want, (got.H, got.E, got.F)):
        np.testing.assert_array_equal(b, a)


def brute_force_semiglobal(s0, s1, scheme) -> int:
    """Max global score over all (suffix-of-prefix) anchorings: the path
    starts on row 0 or column 0 and ends on row m or column n."""
    m, n = len(s0), len(s1)
    best = None
    for i0 in range(m):
        for j0 in range(n):
            if i0 and j0:
                continue  # start must touch a boundary
            for i1 in range(i0 + 1, m + 1):
                for j1 in range(j0 + 1, n + 1):
                    if i1 != m and j1 != n:
                        continue  # end must touch a boundary
                    score = reference.global_score(
                        s0[i0:i1], s1[j0:j1], scheme)
                    best = score if best is None else max(best, score)
    # The empty overlap (both sequences entirely in free gaps) is valid.
    return max(best, 0)


class TestSemiGlobal:
    def test_contained_query(self, scheme):
        s0 = Sequence.from_text("CCGTA")
        s1 = Sequence.from_text("TTTTCCGTATTTT")
        result = semiglobal_align(s0, s1, scheme)
        assert result.score == 5 * scheme.match
        assert result.start == (0, 4)
        assert result.end == (5, 9)

    def test_overlap_suffix_prefix(self, scheme):
        # S0's suffix overlaps S1's prefix.
        s0 = Sequence.from_text("AAAACCGT")
        s1 = Sequence.from_text("CCGTTTTT")
        result = semiglobal_align(s0, s1, scheme)
        assert result.score == 4 * scheme.match
        assert result.start == (4, 0) and result.end == (8, 4)

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            s0, s1 = make_pair(rng, 7, 9)
            want = brute_force_semiglobal(s0, s1, PAPER_SCHEME)
            assert semiglobal_score(s0, s1, PAPER_SCHEME) == want

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bracketed_by_local_and_global(self, rng, scheme):
        s0, s1 = make_pair(rng, 40, 45)
        local = reference.sw_score(s0, s1, scheme)
        global_ = reference.global_score(s0, s1, scheme)
        semi = semiglobal_score(s0, s1, scheme)
        assert global_ <= semi <= local

    @settings(max_examples=40, deadline=None)
    @given(t0=dna, t1=dna)
    def test_property_path_touches_boundaries(self, t0, t1):
        s0, s1 = Sequence.from_text(t0), Sequence.from_text(t1)
        result = semiglobal_align(s0, s1, PAPER_SCHEME)
        i0, j0 = result.start
        i1, j1 = result.end
        assert i0 == 0 or j0 == 0
        assert i1 == len(s0) or j1 == len(s1)
        assert result.alignment.score(s0, s1, PAPER_SCHEME) == result.score

    @settings(max_examples=25, deadline=None)
    @given(t0=dna, t1=dna)
    def test_property_bracketing(self, t0, t1):
        s0, s1 = Sequence.from_text(t0), Sequence.from_text(t1)
        local = reference.sw_score(s0, s1, PAPER_SCHEME)
        global_ = reference.global_score(s0, s1, PAPER_SCHEME)
        semi = semiglobal_score(s0, s1, PAPER_SCHEME)
        assert global_ <= semi <= local

    @settings(max_examples=30, deadline=None)
    @given(t0=st.text(alphabet="ACGTN", min_size=1, max_size=40),
           t1=st.text(alphabet="ACGTN", min_size=1, max_size=40),
           scheme=st.sampled_from(SCHEMES))
    def test_property_row_step_equals_frozen_body(self, t0, t1, scheme):
        """``row_step`` with a free left edge plus the F(i, 0) pin is the
        old private row body, cell for cell."""
        assert_matches_frozen_body(Sequence.from_text(t0).codes,
                                   Sequence.from_text(t1).codes, scheme)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_wide_rows_take_the_block_scan(self, rng, scheme):
        n = rowscan._BLOCK_MIN_CELLS + 37
        assert_matches_frozen_body(random_dna(3, rng, "A").codes,
                                   random_dna(n, rng, "B").codes, scheme)

    def test_empty_rejected(self, scheme):
        with pytest.raises(AlignmentError):
            semiglobal_align(np.empty(0, np.uint8), np.zeros(3, np.uint8),
                             scheme)
