"""Reference DP + vectorized full-matrix aligner: tracebacks and boundary
gap states, cross-validated against each other and against rescoring."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import AlignmentError
from repro.align import full_matrix, reference
from repro.align.scoring import PAPER_SCHEME
from repro.sequences.sequence import N_CODE, Sequence

from tests.conftest import SCHEMES, make_pair

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)
gap_states = st.sampled_from([TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1])
#: One side of a lane: 1-40 bases, a third of them N.
side = st.lists(st.sampled_from((0, 1, 2, 3, N_CODE, N_CODE)), min_size=1,
                max_size=40).map(lambda c: np.array(c, dtype=np.uint8))
lane_lists = st.lists(st.tuples(side, side, gap_states, gap_states),
                      min_size=1, max_size=8)


class TestReferenceLocal:
    def test_known_tiny_case(self, scheme):
        s0 = Sequence.from_text("ACACACTA")
        s1 = Sequence.from_text("AGCACACA")
        score = reference.sw_score(s0, s1, scheme)
        path = reference.sw_align(s0, s1, scheme)
        assert path.score(s0, s1, scheme) == score
        assert score > 0

    def test_identical_sequences(self, scheme):
        s = Sequence.from_text("ACGTACGTAC")
        assert reference.sw_score(s, s, scheme) == 10 * scheme.match

    def test_unrelated_floor_at_zero(self, scheme):
        s0 = Sequence.from_text("AAAA")
        s1 = Sequence.from_text("TTTT")
        assert reference.sw_score(s0, s1, scheme) == 0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_traceback_rescoring(self, rng, scheme):
        s0, s1 = make_pair(rng, 30, 34)
        mats = reference.sw_matrices(s0, s1, scheme)
        best, _ = reference.best_cell(mats.H)
        path = reference.sw_align(s0, s1, scheme)
        assert path.score(s0, s1, scheme) == best


class TestReferenceGlobal:
    def test_global_score_symmetry(self, rng, scheme):
        s0, s1 = make_pair(rng, 18, 25)
        a = reference.global_score(s0, s1, scheme)
        b = reference.global_score(s1, s0, scheme)
        assert a == b  # transposition symmetry of global alignment

    def test_start_gap_waives_opening(self, scheme):
        # Aligning "A" against "AAA": the best path is one diagonal plus a
        # 2-long horizontal gap.  With start_gap=E a boundary run is cheaper.
        s0 = Sequence.from_text("A")
        s1 = Sequence.from_text("AAA")
        plain = reference.global_score(s0, s1, scheme)
        waived = reference.global_score(s0, s1, scheme, start_gap=TYPE_GAP_S0)
        assert plain == scheme.match - scheme.gap_cost(2)
        # Waived: leading gap of 2 at G_ext each, then the diagonal.
        assert waived == scheme.match - 2 * scheme.gap_ext

    def test_end_gap_reads_gap_matrix(self, scheme):
        s0 = Sequence.from_text("AA")
        s1 = Sequence.from_text("AAA")
        # End in E state: last column is a gap in S0.
        end_e = reference.global_score(s0, s1, scheme, end_gap=TYPE_GAP_S0)
        assert end_e == 2 * scheme.match - scheme.gap_first

    def test_traceback_rescoring_global(self, rng, scheme):
        s0, s1 = make_pair(rng, 22, 19)
        score = reference.global_score(s0, s1, scheme)
        path = reference.global_align(s0, s1, scheme)
        assert path.start == (0, 0) and path.end == (22, 19)
        assert path.score(s0, s1, scheme) == score


class TestFullMatrixAgainstReference:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matrices_equal_local(self, rng, scheme):
        s0, s1 = make_pair(rng, 25, 31)
        ref = reference.sw_matrices(s0, s1, scheme)
        fast = full_matrix.dp_matrices(s0.codes, s1.codes, scheme, local=True)
        np.testing.assert_array_equal(fast.H, ref.H)
        np.testing.assert_array_equal(fast.E, ref.E)
        np.testing.assert_array_equal(fast.F, ref.F)

    @pytest.mark.parametrize("start_gap", [TYPE_MATCH, TYPE_GAP_S0, TYPE_GAP_S1])
    def test_matrices_equal_global(self, rng, scheme, start_gap):
        s0, s1 = make_pair(rng, 25, 31)
        ref = reference.global_matrices(s0, s1, scheme, start_gap=start_gap)
        fast = full_matrix.dp_matrices(s0.codes, s1.codes, scheme,
                                       local=False, start_gap=start_gap)
        np.testing.assert_array_equal(fast.H, ref.H)
        np.testing.assert_array_equal(fast.E, ref.E)
        np.testing.assert_array_equal(fast.F, ref.F)

    def test_local_align_matches_reference_score(self, rng, scheme):
        s0, s1 = make_pair(rng, 40, 44)
        path, score = full_matrix.local_align(s0, s1, scheme)
        assert score == reference.sw_score(s0, s1, scheme)
        assert path.score(s0, s1, scheme) == score

    @settings(max_examples=40, deadline=None)
    @given(t0=dna, t1=dna, start=gap_states, end=gap_states)
    def test_property_global_boundary_states(self, t0, t1, start, end):
        s0 = Sequence.from_text(t0)
        s1 = Sequence.from_text(t1)
        want = reference.global_score(s0, s1, PAPER_SCHEME,
                                      start_gap=start, end_gap=end)
        [(path, got)] = full_matrix.global_align(
            [(s0.codes, s1.codes, start, end)], PAPER_SCHEME)
        assert got == want
        # The path must span the whole rectangle.
        assert path.start == (0, 0)
        assert path.end == (len(s0), len(s1))


class TestLaneBlocks:
    """``global_align`` over a ragged list of lanes: every lane must get
    the reference score and the same path it gets alone, however the
    lanes are split into blocks."""

    @staticmethod
    def check_lanes(problems, scheme):
        results = full_matrix.global_align(problems, scheme)
        assert len(results) == len(problems)
        for (c0, c1, start, end), (path, score) in zip(problems, results):
            s0, s1 = Sequence(c0), Sequence(c1)
            assert score == reference.global_score(s0, s1, scheme,
                                                   start_gap=start,
                                                   end_gap=end)
            assert path.start == (0, 0) and path.end == (len(s0), len(s1))
            # The rescorer charges an opening the waived start gap skips.
            waived = start != TYPE_MATCH and path.ops[0] == start
            assert path.score(s0, s1, scheme) + waived * scheme.gap_open \
                == score
            [(alone, alone_score)] = full_matrix.global_align(
                [(c0, c1, start, end)], scheme)
            assert alone_score == score
            np.testing.assert_array_equal(alone.ops, path.ops)

    @settings(max_examples=15, deadline=None)
    @given(problems=lane_lists)
    def test_property_lanes_match_reference(self, problems):
        for scheme in SCHEMES:
            self.check_lanes(problems, scheme)

    @settings(max_examples=15, deadline=None)
    @given(problems=lane_lists, big=st.tuples(gap_states, gap_states))
    def test_property_lanes_across_small_blocks(self, problems, big):
        """A budget of a few small lanes splits the list over several
        blocks; the 40 x 40 lane alone exceeds it."""
        rng = np.random.default_rng(len(problems))
        problems = problems + [(rng.integers(0, 5, 40, dtype=np.uint8),
                                rng.integers(0, 5, 40, dtype=np.uint8), *big)]
        budget = 4096
        assert full_matrix._block_bytes(40, 1, 40) > budget
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(full_matrix, "_LANE_BLOCK_BYTES", budget)
            shapes = [(c0.size, c1.size) for c0, c1, _, _ in problems]
            blocks = full_matrix._plan_blocks(shapes)
            assert sorted(sum(blocks, [])) == list(range(len(problems)))
            for block in blocks:
                assert len(block) == 1 or full_matrix._block_bytes(
                    max(shapes[k][0] for k in block), len(block),
                    max(shapes[k][1] for k in block)) <= budget
            for scheme in SCHEMES:
                self.check_lanes(problems, scheme)

    @pytest.mark.parametrize("empty", [0, 1])
    def test_empty_side_in_any_lane_rejected(self, rng, empty):
        lanes = [[rng.integers(0, 4, 5, dtype=np.uint8) for _ in range(2)]
                 for _ in range(3)]
        lanes[1][empty] = np.empty(0, np.uint8)
        with pytest.raises(AlignmentError, match="empty"):
            full_matrix.global_align(
                [(c0, c1, TYPE_MATCH, TYPE_MATCH) for c0, c1 in lanes],
                PAPER_SCHEME)


class TestBoundaryGapScoreIdentity:
    """The partition-join arithmetic of Section IV-A: splitting a gap run
    across two partitions with (end_gap, start_gap) conventions must cost
    exactly one opening in total."""

    @settings(max_examples=30, deadline=None)
    @given(t0=dna, t1=dna, tm=dna, kind=st.sampled_from([TYPE_GAP_S0, TYPE_GAP_S1]))
    def test_split_gap_costs_one_opening(self, t0, t1, tm, kind):
        # Build A|B where a forced gap crosses the boundary.  Score(A, end
        # in gap) + Score(B, start in gap) for the *same* gap run must
        # equal the un-split cost: verify on the smallest closed form.
        scheme = PAPER_SCHEME
        s = Sequence.from_text("A")
        long = Sequence.from_text("AAAA")
        if kind == TYPE_GAP_S0:
            upper = reference.global_score(s, long, scheme, end_gap=kind)
            lower = reference.global_score(s, long, scheme, start_gap=kind)
        else:
            upper = reference.global_score(long, s, scheme, end_gap=kind)
            lower = reference.global_score(long, s, scheme, start_gap=kind)
        # upper ends mid-gap (open paid), lower continues it (open waived):
        # total = 2 matches + one 6-long gap run.
        assert upper + lower == 2 * scheme.match - scheme.gap_cost(6)
