"""Alignment object: geometry, scoring, gap runs, rendering, composition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import AlignmentError
from repro.align.alignment import Alignment
from repro.align.scoring import PAPER_SCHEME
from repro.sequences.sequence import Sequence


def aln(i0, j0, ops):
    return Alignment(i0, j0, np.asarray(ops, dtype=np.uint8))


class TestGeometry:
    def test_end_position(self):
        a = aln(2, 3, [0, 0, 1, 2, 0])
        # 4 ops consume S0 (not type 1), 4 consume S1 (not type 2)
        assert a.end == (2 + 4, 3 + 4)
        assert a.span0 == 4 and a.span1 == 4

    def test_empty_alignment(self):
        a = aln(5, 5, [])
        assert a.end == (5, 5)
        assert len(a) == 0

    def test_invalid_ops_rejected(self):
        with pytest.raises(AlignmentError):
            aln(0, 0, [0, 3])

    def test_negative_start_rejected(self):
        with pytest.raises(AlignmentError):
            aln(-1, 0, [0])

    def test_ops_immutable(self):
        a = aln(0, 0, [0, 1])
        with pytest.raises(ValueError):
            a.ops[0] = 2


class TestScoring:
    def test_figure1_alignment(self):
        # Figure 1 of the paper: ACTTCC--AGA vs AGTTCCGGAGG with the
        # figure's linear costs replaced by our affine ones.
        s0 = Sequence.from_text("ACTTCCAGA")
        s1 = Sequence.from_text("AGTTCCGGAGG")
        ops = [0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0]
        a = aln(0, 0, ops)
        comp = a.composition(s0, s1, PAPER_SCHEME)
        assert comp.matches == 7
        assert comp.mismatches == 2
        assert comp.gap_opens == 1
        assert comp.gap_extensions == 1
        assert comp.score == 7 * 1 + 2 * (-3) - 1 * 5 - 1 * 2

    def test_gap_run_cost_matches_scheme(self):
        s0 = Sequence.from_text("AAAA")
        s1 = Sequence.from_text("AAAAAAA")
        a = aln(0, 0, [0, 0, 1, 1, 1, 0, 0])
        assert a.score(s0, s1, PAPER_SCHEME) == 4 - PAPER_SCHEME.gap_cost(3)

    def test_out_of_range_rejected(self):
        s0 = Sequence.from_text("AC")
        s1 = Sequence.from_text("AC")
        with pytest.raises(AlignmentError):
            aln(0, 0, [0, 0, 0]).score(s0, s1, PAPER_SCHEME)


class TestGapRuns:
    def test_runs_and_kinds(self):
        a = aln(0, 0, [0, 1, 1, 0, 2, 0, 1])
        gap1, gap2 = a.gap_runs()
        assert [(g.length, g.kind) for g in gap1] == [(2, TYPE_GAP_S0),
                                                      (1, TYPE_GAP_S0)]
        assert [(g.length, g.kind) for g in gap2] == [(1, TYPE_GAP_S1)]
        # first run opens after column 0: position (1, 1)
        assert (gap1[0].i, gap1[0].j) == (1, 1)

    def test_leading_gap_position(self):
        a = aln(4, 7, [2, 0])
        _, gap2 = a.gap_runs()
        assert (gap2[0].i, gap2[0].j, gap2[0].length) == (4, 7, 1)

    def test_no_gaps(self):
        gap1, gap2 = aln(0, 0, [0, 0]).gap_runs()
        assert gap1 == [] and gap2 == []

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(st.integers(0, 2), max_size=60))
    def test_runs_account_for_all_gap_columns(self, ops):
        a = aln(0, 0, ops)
        gap1, gap2 = a.gap_runs()
        total = sum(g.length for g in gap1) + sum(g.length for g in gap2)
        assert total == int(np.count_nonzero(a.ops != TYPE_MATCH))


class TestComposition:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(st.integers(0, 2), max_size=60), seed=st.integers(0, 99))
    def test_census_sums_to_length(self, ops, seed):
        rng = np.random.default_rng(seed)
        a = aln(0, 0, ops)
        i1, j1 = a.end
        s0 = Sequence(rng.integers(0, 4, size=max(1, i1), dtype=np.uint8))
        s1 = Sequence(rng.integers(0, 4, size=max(1, j1), dtype=np.uint8))
        comp = a.composition(s0, s1, PAPER_SCHEME)
        assert comp.length == len(a)
        # Gap opens equals the number of runs.
        gap1, gap2 = a.gap_runs()
        assert comp.gap_opens == len(gap1) + len(gap2)


class TestConcat:
    def test_concat_requires_continuity(self):
        a = aln(0, 0, [0, 0])
        b = aln(2, 2, [1])
        c = a.concat(b)
        assert c.end == (2, 3)
        with pytest.raises(AlignmentError):
            b.concat(a)

    def test_concat_all_preserves_score(self):
        s0 = Sequence.from_text("ACGTACGT")
        s1 = Sequence.from_text("ACGAACGT")
        a = aln(0, 0, [0, 0, 0, 0])
        b = aln(4, 4, [0, 0, 0, 0])
        whole = Alignment.concat_all([a, b])
        assert (whole.score(s0, s1, PAPER_SCHEME)
                == a.score(s0, s1, PAPER_SCHEME) + b.score(s0, s1, PAPER_SCHEME))

    def test_concat_merges_gap_runs_in_scoring(self):
        # A gap run split across two parts must cost ONE opening overall
        # when rescored on the concatenated alignment.
        s0 = Sequence.from_text("AAAA")
        s1 = Sequence.from_text("AAAAAAAA")
        a = aln(0, 0, [0, 0, 1, 1])
        b = aln(2, 4, [1, 1, 0, 0])
        whole = a.concat(b)
        assert whole.score(s0, s1, PAPER_SCHEME) == 4 - PAPER_SCHEME.gap_cost(4)

    def test_concat_empty_list_rejected(self):
        with pytest.raises(AlignmentError):
            Alignment.concat_all([])

    def test_concat_all_rejects_a_break_mid_chain(self):
        parts = [aln(0, 0, [0, 1]), aln(1, 2, [2, 0]), aln(4, 3, [0])]
        with pytest.raises(AlignmentError, match=r"\(3, 3\) != \(4, 3\)"):
            Alignment.concat_all(parts)
        whole = Alignment.concat_all(parts[:2] + [aln(3, 3, [0])])
        assert whole.start == (0, 0) and whole.end == (4, 4)
        np.testing.assert_array_equal(whole.ops, [0, 1, 2, 0, 0])


class TestTransforms:
    def test_transposed_swaps_gap_kinds(self):
        a = aln(1, 2, [0, 1, 2])
        t = a.transposed()
        assert t.start == (2, 1)
        assert list(t.ops) == [0, 2, 1]
        assert t.transposed().start == a.start

    def test_offset(self):
        a = aln(1, 2, [0]).offset(10, 20)
        assert a.start == (11, 22)

    def test_reversed_path(self):
        a = aln(0, 0, [0, 1, 2])  # on reversed seqs of lengths (5, 7)
        r = a.reversed_path(5, 7)
        assert list(r.ops) == [2, 1, 0]
        assert r.end == (5, 7)

    def test_transposed_score_invariant(self):
        s0 = Sequence.from_text("ACGGT")
        s1 = Sequence.from_text("ACT")
        a = aln(0, 0, [0, 0, 2, 2, 0])
        assert (a.score(s0, s1, PAPER_SCHEME)
                == a.transposed().score(s1, s0, PAPER_SCHEME))


class TestIdentityAndCoverage:
    def test_identity(self):
        s0 = Sequence.from_text("ACGT")
        s1 = Sequence.from_text("ACGA")
        a = aln(0, 0, [0, 0, 0, 0])
        assert a.identity(s0, s1) == 0.75

    def test_identity_empty(self):
        s = Sequence.from_text("A")
        assert aln(0, 0, []).identity(s, s) == 0.0

    def test_coverage(self):
        s0 = Sequence.from_text("ACGTACGT")
        s1 = Sequence.from_text("ACGT")
        a = aln(2, 0, [0, 0, 0, 0])
        c0, c1 = a.coverage(s0, s1)
        assert c0 == 0.5 and c1 == 1.0

    def test_paper_style_identity_claim(self):
        # The paper: matches were 96.6% of the chimp chromosome size.
        s0 = Sequence.from_text("ACGT" * 25)
        a = aln(0, 0, [0] * 100)
        comp = a.composition(s0, s0, PAPER_SCHEME)
        assert comp.matches / len(s0) == 1.0


class TestRendering:
    def test_render_rows(self):
        s0 = Sequence.from_text("ACTTCC")
        s1 = Sequence.from_text("AGTTC")
        a = aln(0, 0, [0, 0, 0, 0, 0, 2])
        top, marker, bottom = a.render_rows(s0, s1)
        assert top == "ACTTCC"
        assert bottom == "AGTTC-"
        assert marker == "|.||| "
