"""Direct tests of the Myers-Miller midpoint finder (the Stage-4 core)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import MatchingError
from repro.align import reference
from repro.align.myers_miller import (MMConfig, MMStats, find_midpoint,
                                      find_midpoints)
from repro.align.scoring import PAPER_SCHEME
from repro.sequences.sequence import Sequence

from tests.conftest import SCHEMES, make_pair

dna = st.text(alphabet="ACGT", min_size=2, max_size=48)
gap_states = st.sampled_from([TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1])
#: One split problem as text: (rows, columns, start, end, known goal?).
problem_specs = st.tuples(st.text(alphabet="ACGT", min_size=2, max_size=40),
                          st.text(alphabet="ACGT", min_size=1, max_size=40),
                          gap_states, gap_states, st.booleans())


def ref_goal(s0, s1, scheme, start, end):
    return reference.global_score(s0, s1, scheme, start_gap=start,
                                  end_gap=end)


def check_split(s0, s1, scheme, start, end, r, j, join, top_value):
    """The split must decompose the optimum additively.

    Empty-sided sub-rectangles (j == 0 or j == n) are pure gap runs whose
    value the reference cannot express; the other half then pins the total.
    """
    whole = ref_goal(s0, s1, scheme, start, end)
    if j > 0:
        assert top_value == ref_goal(s0[:r], s1[:j], scheme, start, join)
    if j < len(s1):
        assert whole - top_value == ref_goal(s0[r:], s1[j:], scheme,
                                             join, end)


class TestFindMidpoint:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_split_decomposes_optimum(self, rng, scheme):
        s0, s1 = make_pair(rng, 24, 30)
        goal = ref_goal(s0, s1, scheme, TYPE_MATCH, TYPE_MATCH)
        r, j, join, top_value = find_midpoint(
            s0.codes, s1.codes, scheme, goal=goal,
            config=MMConfig(orthogonal=False))
        assert r == 12
        check_split(s0, s1, scheme, TYPE_MATCH, TYPE_MATCH,
                    r, j, join, top_value)

    def test_orthogonal_equals_full_value(self, rng, scheme):
        s0, s1 = make_pair(rng, 30, 40)
        goal = ref_goal(s0, s1, scheme, TYPE_MATCH, TYPE_MATCH)
        r1, j1, join1, v1 = find_midpoint(
            s0.codes, s1.codes, scheme, goal=goal,
            config=MMConfig(orthogonal=False))
        r2, j2, join2, v2 = find_midpoint(
            s0.codes, s1.codes, scheme, goal=goal,
            config=MMConfig(orthogonal=True, strip=4))
        # Both must decompose the same optimum (possibly at different
        # tie-equivalent columns).
        check_split(s0, s1, scheme, TYPE_MATCH, TYPE_MATCH, r1, j1, join1, v1)
        check_split(s0, s1, scheme, TYPE_MATCH, TYPE_MATCH, r2, j2, join2, v2)

    @settings(max_examples=30, deadline=None)
    @given(t0=dna, t1=dna, start=gap_states, end=gap_states)
    def test_property_boundary_states(self, t0, t1, start, end):
        s0, s1 = Sequence.from_text(t0), Sequence.from_text(t1)
        goal = ref_goal(s0, s1, PAPER_SCHEME, start, end)
        r, j, join, top_value = find_midpoint(
            s0.codes, s1.codes, PAPER_SCHEME, start_gap=start, end_gap=end,
            goal=goal, config=MMConfig(orthogonal=True, strip=3))
        assert 0 <= j <= len(s1)
        assert join in (TYPE_MATCH, TYPE_GAP_S1)
        check_split(s0, s1, PAPER_SCHEME, start, end, r, j, join, top_value)

    def test_wrong_goal_raises(self, rng, scheme):
        s0, s1 = make_pair(rng, 20, 20)
        goal = ref_goal(s0, s1, scheme, TYPE_MATCH, TYPE_MATCH)
        with pytest.raises(MatchingError):
            find_midpoint(s0.codes, s1.codes, scheme, goal=goal + 3,
                          config=MMConfig(orthogonal=False))
        with pytest.raises(MatchingError):
            find_midpoint(s0.codes, s1.codes, scheme, goal=goal + 3,
                          config=MMConfig(orthogonal=True))

    def test_requires_two_rows(self, scheme):
        with pytest.raises(MatchingError):
            find_midpoint(np.zeros(1, np.uint8), np.zeros(5, np.uint8),
                          scheme)
        # One short problem fails a whole batch.
        ok = (np.zeros(4, np.uint8), np.zeros(4, np.uint8),
              TYPE_MATCH, TYPE_MATCH, None)
        short = (np.zeros(1, np.uint8), np.zeros(5, np.uint8),
                 TYPE_MATCH, TYPE_MATCH, None)
        with pytest.raises(MatchingError):
            find_midpoints([ok, short], scheme)

    def test_stats_accumulate(self, rng, scheme):
        s0, s1 = make_pair(rng, 40, 40)
        stats = MMStats()
        goal = ref_goal(s0, s1, scheme, TYPE_MATCH, TYPE_MATCH)
        find_midpoint(s0.codes, s1.codes, scheme, goal=goal, stats=stats,
                      config=MMConfig(orthogonal=True, strip=8))
        assert stats.cells_forward == 20 * 40
        assert 0 < stats.cells_reverse <= 20 * 40


class TestFindMidpoints:
    """The fused batch must be invisible: every lane lands on exactly
    the split (and the cell counts) its own single-problem call does."""

    @staticmethod
    def problems(specs):
        seqs, problems = [], []
        for t0, t1, start, end, known in specs:
            s0, s1 = Sequence.from_text(t0), Sequence.from_text(t1)
            goal = ref_goal(s0, s1, PAPER_SCHEME, start, end) if known else None
            seqs.append((s0, s1, start, end))
            problems.append((s0.codes, s1.codes, start, end, goal))
        return seqs, problems

    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(problem_specs, min_size=1, max_size=12),
           orthogonal=st.booleans(), strip=st.integers(1, 8))
    @example(specs=[("AC", "G", s, e, True)
                    for s in (TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1)
                    for e in (TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1)]
             + [("ACGTTGCA" * 5, "T", TYPE_MATCH, TYPE_GAP_S0, False)],
             orthogonal=True, strip=1)
    def test_batch_equals_single_calls(self, specs, orthogonal, strip):
        seqs, problems = self.problems(specs)
        config = MMConfig(orthogonal=orthogonal, strip=strip)
        batch_stats, single_stats = MMStats(), MMStats()
        batch = find_midpoints(problems, PAPER_SCHEME, config=config,
                               stats=batch_stats)
        single = [find_midpoint(c0, c1, PAPER_SCHEME, start_gap=start,
                                end_gap=end, goal=goal, config=config,
                                stats=single_stats)
                  for c0, c1, start, end, goal in problems]
        assert batch == single
        assert batch_stats == single_stats
        for (s0, s1, start, end), split in zip(seqs, batch):
            assert split[0] == len(s0) // 2
            check_split(s0, s1, PAPER_SCHEME, start, end, *split)

    @pytest.mark.parametrize("orthogonal", [True, False])
    def test_one_wrong_goal_fails_the_batch(self, rng, scheme, orthogonal):
        problems = []
        for m, n in [(20, 24), (9, 3), (31, 30)]:
            s0, s1 = make_pair(rng, m, n)
            goal = ref_goal(s0, s1, scheme, TYPE_MATCH, TYPE_MATCH)
            problems.append((s0.codes, s1.codes, TYPE_MATCH, TYPE_MATCH, goal))
        config = MMConfig(orthogonal=orthogonal, strip=4)
        find_midpoints(problems, scheme, config=config)
        c0, c1, start, end, goal = problems[1]
        problems[1] = (c0, c1, start, end, goal + 3)
        with pytest.raises(MatchingError):
            find_midpoints(problems, scheme, config=config)
