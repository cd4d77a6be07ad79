"""Myers-Miller linear-space alignment vs the full-matrix ground truth."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import MatchingError
from repro.align import full_matrix, reference
from repro.align.myers_miller import (
    MMConfig,
    MMStats,
    degenerate_alignment,
    mm_align,
    mm_score,
)
from repro.align.scoring import PAPER_SCHEME

from tests.conftest import SCHEMES, make_pair

dna = st.text(alphabet="ACGT", min_size=1, max_size=64)
gap_states = st.sampled_from([TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1])

SMALL_BASE = MMConfig(base_max_cells=16, strip=4)


def check_alignment(path, score, s0, s1, scheme, start_gap, end_gap):
    """An MM result must span the rectangle and rescore to its score once
    the boundary conventions are unwound."""
    assert path.start == (0, 0)
    assert path.end == (len(s0), len(s1))
    raw = path.score(s0, s1, scheme)
    adjust = 0
    # start waiver: first run of the matching kind was charged an opening
    # by the rescorer but the partition does not pay it.
    if start_gap != TYPE_MATCH and len(path) and path.ops[0] == start_gap:
        adjust += scheme.gap_open
    assert raw + adjust == score


class TestMMScore:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_score_matches_reference(self, rng, scheme):
        s0, s1 = make_pair(rng, 40, 50)
        assert mm_score(s0.codes, s1.codes, scheme) == \
            reference.global_score(s0, s1, scheme)


class TestMMAlign:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_plain_global(self, rng, scheme):
        s0, s1 = make_pair(rng, 60, 70)
        want = reference.global_score(s0, s1, scheme)
        path, score = mm_align(s0.codes, s1.codes, scheme, config=SMALL_BASE)
        assert score == want
        assert path.score(s0, s1, scheme) == want

    def test_recursion_actually_splits(self, rng, scheme):
        s0, s1 = make_pair(rng, 64, 64)
        stats = MMStats()
        mm_align(s0.codes, s1.codes, scheme, config=SMALL_BASE, stats=stats)
        assert stats.splits > 1
        assert stats.max_depth > 1

    @settings(max_examples=40, deadline=None)
    @given(t0=dna, t1=dna)
    def test_property_matches_full_matrix(self, t0, t1):
        from repro.sequences.sequence import Sequence
        s0, s1 = Sequence.from_text(t0), Sequence.from_text(t1)
        [(_, want)] = full_matrix.global_align(
            [(s0.codes, s1.codes, TYPE_MATCH, TYPE_MATCH)], PAPER_SCHEME)
        path, got = mm_align(s0.codes, s1.codes, PAPER_SCHEME,
                             config=SMALL_BASE)
        assert got == want
        assert path.score(s0, s1, PAPER_SCHEME) == want

    @settings(max_examples=30, deadline=None)
    @given(t0=dna, t1=dna, start=gap_states, end=gap_states)
    def test_property_boundary_states(self, t0, t1, start, end):
        from repro.sequences.sequence import Sequence
        s0, s1 = Sequence.from_text(t0), Sequence.from_text(t1)
        [(_, want)] = full_matrix.global_align(
            [(s0.codes, s1.codes, start, end)], PAPER_SCHEME)
        path, got = mm_align(s0.codes, s1.codes, PAPER_SCHEME,
                             start_gap=start, end_gap=end, config=SMALL_BASE)
        assert got == want
        check_alignment(path, got, s0, s1, PAPER_SCHEME, start, end)

    def test_goal_verified(self, rng, scheme):
        s0, s1 = make_pair(rng, 30, 30)
        want = reference.global_score(s0, s1, scheme)
        path, got = mm_align(s0.codes, s1.codes, scheme, goal=want,
                             config=SMALL_BASE)
        assert got == want
        with pytest.raises(MatchingError):
            mm_align(s0.codes, s1.codes, scheme, goal=want + 1,
                     config=MMConfig(base_max_cells=16, orthogonal=False))


class TestOrthogonalExecution:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_same_result_fewer_cells(self, rng, scheme):
        s0, s1 = make_pair(rng, 90, 90)
        want = reference.global_score(s0, s1, scheme)
        plain_stats, orth_stats = MMStats(), MMStats()
        p1, g1 = mm_align(s0.codes, s1.codes, scheme, goal=want,
                          config=MMConfig(base_max_cells=64, orthogonal=False),
                          stats=plain_stats)
        p2, g2 = mm_align(s0.codes, s1.codes, scheme, goal=want,
                          config=MMConfig(base_max_cells=64, strip=8),
                          stats=orth_stats)
        assert g1 == g2 == want
        assert p2.score(s0, s1, scheme) == want
        # The goal-based reverse half must skip real work.
        assert orth_stats.cells_reverse < plain_stats.cells_reverse

    def test_savings_near_theoretical(self, rng):
        # Over many random splits the reverse half processes ~50% of its
        # area (paper: 25% total saving).  Allow a generous band.
        s0, s1 = make_pair(rng, 256, 256)
        want = reference.global_score(s0, s1, PAPER_SCHEME)
        plain, orth = MMStats(), MMStats()
        mm_align(s0.codes, s1.codes, PAPER_SCHEME, goal=want,
                 config=MMConfig(base_max_cells=256, orthogonal=False),
                 stats=plain)
        mm_align(s0.codes, s1.codes, PAPER_SCHEME, goal=want,
                 config=MMConfig(base_max_cells=256, strip=8), stats=orth)
        ratio = orth.cells_reverse / plain.cells_reverse
        assert ratio < 0.95


class TestBalancedSplitting:
    def test_wide_partition_transposed(self, rng, scheme):
        s0, s1 = make_pair(rng, 16, 300)
        want = reference.global_score(s0, s1, scheme)
        path, got = mm_align(s0.codes, s1.codes, scheme,
                             config=MMConfig(base_max_cells=64))
        assert got == want
        assert path.end == (16, 300)

    def test_unbalanced_mode_still_correct(self, rng, scheme):
        s0, s1 = make_pair(rng, 16, 300)
        want = reference.global_score(s0, s1, scheme)
        _, got = mm_align(s0.codes, s1.codes, scheme,
                          config=MMConfig(base_max_cells=64, balanced=False))
        assert got == want

    def test_balanced_transposes_only_wide_problems(self, rng):
        # Balanced splitting on a tall-narrow problem behaves identically
        # to unbalanced (no transposition is ever needed).
        s0, s1 = make_pair(rng, 300, 16)
        bal, unbal = MMStats(), MMStats()
        cfg_b = MMConfig(base_max_cells=64)
        cfg_u = MMConfig(base_max_cells=64, balanced=False)
        _, g1 = mm_align(s0.codes, s1.codes, PAPER_SCHEME, config=cfg_b,
                         stats=bal)
        _, g2 = mm_align(s0.codes, s1.codes, PAPER_SCHEME, config=cfg_u,
                         stats=unbal)
        assert g1 == g2
        assert bal.splits == unbal.splits
        # The iteration-count benefit of balanced splitting (Figure 10) is
        # asserted at the Stage-4 level in test_stage4.py, where rounds
        # halve partitions until max_partition_size is met.


class TestDegenerate:
    def test_empty_both(self, scheme):
        path, score = mm_align(np.empty(0, np.uint8), np.empty(0, np.uint8),
                               scheme)
        assert len(path) == 0 and score == 0

    def test_empty_s0_costs_gap_run(self, scheme):
        codes = np.zeros(5, np.uint8)
        path, score = mm_align(np.empty(0, np.uint8), codes, scheme)
        assert score == -scheme.gap_cost(5)
        assert list(path.ops) == [TYPE_GAP_S0] * 5

    def test_empty_s0_waived(self, scheme):
        codes = np.zeros(5, np.uint8)
        _, score = mm_align(np.empty(0, np.uint8), codes, scheme,
                            start_gap=TYPE_GAP_S0)
        assert score == -5 * scheme.gap_ext

    def test_degenerate_requires_empty_side(self):
        with pytest.raises(MatchingError):
            degenerate_alignment(2, 3)

    def test_degenerate_wrong_end_state(self, scheme):
        with pytest.raises(MatchingError):
            mm_align(np.empty(0, np.uint8), np.zeros(3, np.uint8), scheme,
                     end_gap=TYPE_GAP_S1)
