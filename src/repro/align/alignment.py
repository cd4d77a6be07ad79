"""Alignment representation: edit path, rescoring, gap runs, composition.

An alignment is a start coordinate plus a column-wise edit path.  Path
operations use the paper's crosspoint ``type`` codes (Section IV-A):

* ``0`` — match/mismatch column (consumes one base of each sequence),
* ``1`` — gap in S0 (consumes one base of S1; horizontal move, E matrix),
* ``2`` — gap in S1 (consumes one base of S0; vertical move, F matrix).

Coordinates follow the paper's DP-matrix convention: position ``(i, j)``
means prefixes ``S0[1..i]`` / ``S1[1..j]`` have been consumed, so an
alignment spans ``(i0, j0)`` (exclusive) to ``(i1, j1)`` (inclusive) and
covers Python slices ``codes0[i0:i1]`` / ``codes1[j0:j1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import AlignmentError
from repro.align.scoring import ScoringScheme
from repro.sequences.sequence import N_CODE, Sequence, decode


@dataclass(frozen=True)
class Composition:
    """Column-type census of an alignment (the rows of Table X)."""

    matches: int
    mismatches: int
    gap_opens: int
    gap_extensions: int
    score: int

    @property
    def length(self) -> int:
        """Total alignment columns; matches Table X's 'Total occurrences'."""
        return self.matches + self.mismatches + self.gap_opens + self.gap_extensions


@dataclass(frozen=True)
class GapRun:
    """A maximal run of gaps: ``(i, j)`` is the position *before* the run
    (paper Section IV-F stores the gap-open position and the run length)."""

    i: int
    j: int
    length: int
    kind: int  # TYPE_GAP_S0 or TYPE_GAP_S1


@dataclass(frozen=True)
class Alignment:
    """An edit path anchored at ``(i0, j0)``.

    The path is immutable; all derived quantities (end position, score,
    composition) are computed on demand with vectorized passes.
    """

    i0: int
    j0: int
    ops: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        ops = np.ascontiguousarray(self.ops, dtype=np.uint8)
        if ops.ndim != 1:
            raise AlignmentError("ops must be one-dimensional")
        if ops.size and int(ops.max()) > TYPE_GAP_S1:
            raise AlignmentError("ops contains invalid codes (allowed: 0, 1, 2)")
        if self.i0 < 0 or self.j0 < 0:
            raise AlignmentError("alignment start coordinates must be non-negative")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.ops.size)

    @property
    def span0(self) -> int:
        """Bases of S0 consumed (diagonal + vertical columns)."""
        return int(np.count_nonzero(self.ops != TYPE_GAP_S0))

    @property
    def span1(self) -> int:
        """Bases of S1 consumed (diagonal + horizontal columns)."""
        return int(np.count_nonzero(self.ops != TYPE_GAP_S1))

    @property
    def end(self) -> tuple[int, int]:
        """End position ``(i1, j1)`` in DP-matrix coordinates."""
        return (self.i0 + self.span0, self.j0 + self.span1)

    @property
    def start(self) -> tuple[int, int]:
        return (self.i0, self.j0)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _column_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-column (i, j) coordinates *after* the column is consumed."""
        di = (self.ops != TYPE_GAP_S0).astype(np.int64)
        dj = (self.ops != TYPE_GAP_S1).astype(np.int64)
        return self.i0 + np.cumsum(di), self.j0 + np.cumsum(dj)

    def composition(self, s0: Sequence, s1: Sequence,
                    scheme: ScoringScheme) -> Composition:
        """Census + exact score of the alignment against the sequences.

        A gap run of length L contributes one opening (penalty
        ``gap_first``) and L-1 extensions (``gap_ext`` each), exactly as
        Table X counts them.
        """
        i1, j1 = self.end
        if i1 > len(s0) or j1 > len(s1):
            raise AlignmentError("alignment extends past the end of the sequences")
        ops = self.ops
        if ops.size == 0:
            return Composition(0, 0, 0, 0, 0)
        ii, jj = self._column_indices()
        diag = ops == TYPE_MATCH
        a = s0.codes[ii[diag] - 1]
        b = s1.codes[jj[diag] - 1]
        eq = (a == b) & (a != N_CODE)
        matches = int(np.count_nonzero(eq))
        mismatches = int(np.count_nonzero(diag)) - matches

        gap = ops != TYPE_MATCH
        # A gap column opens a run when the previous column is not a gap of
        # the same kind.
        opens_mask = gap.copy()
        opens_mask[1:] &= ops[1:] != ops[:-1]
        gap_opens = int(np.count_nonzero(opens_mask))
        gap_exts = int(np.count_nonzero(gap)) - gap_opens

        score = (matches * scheme.match + mismatches * scheme.mismatch
                 - gap_opens * scheme.gap_first - gap_exts * scheme.gap_ext)
        return Composition(matches, mismatches, gap_opens, gap_exts, score)

    def score(self, s0: Sequence, s1: Sequence, scheme: ScoringScheme) -> int:
        """Exact score of this alignment under ``scheme``."""
        return self.composition(s0, s1, scheme).score

    def identity(self, s0: Sequence, s1: Sequence) -> float:
        """Fraction of alignment columns that are exact matches.

        The headline similarity number of comparative analyses (the paper
        reports "the number of matches ... was 96.6% of the size of the
        chimpanzee chromosome").
        """
        if len(self) == 0:
            return 0.0
        comp = self.composition(s0, s1, ScoringScheme())
        return comp.matches / comp.length

    def coverage(self, s0: Sequence, s1: Sequence) -> tuple[float, float]:
        """Fraction of each sequence covered by the alignment span."""
        return (self.span0 / len(s0), self.span1 / len(s1))

    # ------------------------------------------------------------------
    # gap runs (Stage 5 binary representation)
    # ------------------------------------------------------------------
    def gap_runs(self) -> tuple[list[GapRun], list[GapRun]]:
        """The paper's ``GAP_1`` / ``GAP_2`` lists (Section IV-F).

        Each tuple records the position where a gap run opens and its
        length; together with start/end/score they reconstruct the full
        alignment (Stage 6).
        """
        ops = self.ops
        gap1: list[GapRun] = []
        gap2: list[GapRun] = []
        if ops.size == 0:
            return gap1, gap2
        ii, jj = self._column_indices()
        boundaries = np.flatnonzero(np.concatenate(([True], ops[1:] != ops[:-1])))
        run_ends = np.concatenate((boundaries[1:], [ops.size]))
        for startc, endc in zip(boundaries.tolist(), run_ends.tolist()):
            kind = int(ops[startc])
            if kind == TYPE_MATCH:
                continue
            # Position before the run: coordinates after column startc-1.
            if startc == 0:
                pos = (self.i0, self.j0)
            else:
                pos = (int(ii[startc - 1]), int(jj[startc - 1]))
            run = GapRun(pos[0], pos[1], endc - startc, kind)
            (gap1 if kind == TYPE_GAP_S0 else gap2).append(run)
        return gap1, gap2

    # ------------------------------------------------------------------
    # composition of alignments
    # ------------------------------------------------------------------
    def concat(self, other: "Alignment") -> "Alignment":
        """Join two alignments end-to-start (Stage 5 concatenation)."""
        if self.end != other.start:
            raise AlignmentError(
                f"cannot concatenate: {self.end} != {other.start}")
        return Alignment(self.i0, self.j0, np.concatenate([self.ops, other.ops]))

    @staticmethod
    def concat_all(parts: list["Alignment"]) -> "Alignment":
        """Concatenate a partition chain in order (one copy of the ops);
        each part must start where the previous one ends."""
        if not parts:
            raise AlignmentError("cannot concatenate an empty partition list")
        for a, b in zip(parts, parts[1:]):
            if a.end != b.start:
                raise AlignmentError(
                    f"cannot concatenate: {a.end} != {b.start}")
        return Alignment(parts[0].i0, parts[0].j0,
                         np.concatenate([part.ops for part in parts]))

    def transposed(self) -> "Alignment":
        """Swap the roles of S0 and S1 (gap types 1 <-> 2).

        Used by balanced splitting, which transposes a partition to halve
        its largest dimension (Section IV-E).
        """
        ops = self.ops.copy()
        swap = ops != TYPE_MATCH
        ops[swap] ^= 3  # 1 <-> 2
        return Alignment(self.j0, self.i0, ops)

    def offset(self, di: int, dj: int) -> "Alignment":
        """Translate the alignment (sub-problem coordinates -> global)."""
        return Alignment(self.i0 + di, self.j0 + dj, self.ops)

    def reversed_path(self, total_i: int, total_j: int) -> "Alignment":
        """Map an alignment computed on reversed sequences back.

        ``total_i``/``total_j`` are the lengths of the (sub)sequences the
        reversed alignment was computed on.
        """
        i1, j1 = self.end
        return Alignment(total_i - i1, total_j - j1,
                         np.ascontiguousarray(self.ops[::-1]))

    # ------------------------------------------------------------------
    # rendering (Stage 6 textual representation)
    # ------------------------------------------------------------------
    def render_rows(self, s0: Sequence, s1: Sequence) -> tuple[str, str, str]:
        """Return the three text rows (S0 line, marker line, S1 line)."""
        ops = self.ops
        ii, jj = self._column_indices()
        row0 = np.full(ops.size, ord("-"), dtype=np.uint8)
        row1 = np.full(ops.size, ord("-"), dtype=np.uint8)
        consume0 = ops != TYPE_GAP_S0
        consume1 = ops != TYPE_GAP_S1
        row0[consume0] = np.frombuffer(
            decode(s0.codes[self.i0:self.end[0]]).encode(), dtype=np.uint8)
        row1[consume1] = np.frombuffer(
            decode(s1.codes[self.j0:self.end[1]]).encode(), dtype=np.uint8)
        marker = np.full(ops.size, ord(" "), dtype=np.uint8)
        both = consume0 & consume1
        eq = row0 == row1
        marker[both & eq] = ord("|")
        marker[both & ~eq] = ord(".")
        del ii, jj
        return (row0.tobytes().decode(), marker.tobytes().decode(),
                row1.tobytes().decode())
