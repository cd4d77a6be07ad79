"""Stage 5 — obtaining the full alignment (Section IV-F).

Every partition is now at most ``max_partition_size`` in each dimension,
so each is aligned exactly with the full-matrix aligner in O(1) memory
(degenerate partitions are emitted directly as gap runs).  All of a
run's base cases go through one :func:`global_align` call, which sweeps
them as fused lanes in byte-capped blocks.  The sub-alignments are
concatenated in chain order into the complete optimal alignment, and
the compact binary representation (start/end, score, GAP_1/GAP_2 lists)
is produced for Stage 6.

Every partition's score is verified against its crosspoint bracket, and
the concatenated alignment is rescored against the Stage-1 best score —
the pipeline's end-to-end invariant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import PartitionError
from repro.align.alignment import Alignment
from repro.align.full_matrix import global_align
from repro.align.myers_miller import degenerate_alignment
from repro.core.config import PipelineConfig
from repro.core.crosspoints import CrosspointChain, Partition
from repro.core.result import StageResult
from repro.gpusim.perf import host_seconds
from repro.sequences.sequence import Sequence
from repro.storage.binary_alignment import BinaryAlignment
from repro.telemetry.runtime import NULL_TELEMETRY


@dataclass(frozen=True)
class Stage5Result(StageResult):
    stage: ClassVar[str] = "5"

    alignment: Alignment
    binary: BinaryAlignment
    partitions_aligned: int
    cells: int
    wall_seconds: float
    modeled_seconds: float


def align_partitions(s0: Sequence, s1: Sequence, partitions: list[Partition],
                     config: PipelineConfig) -> tuple[list[Alignment], int]:
    """Exact alignment of every partition; returns (global paths in chain
    order, cells).

    Partitions here are at most ``max_partition_size`` per side, so one
    :func:`global_align` call aligns every non-degenerate one; each
    score must equal the partition's crosspoint bracket.
    """
    aligned = [p for p in partitions if not p.degenerate]
    solved = iter(global_align(
        [(s0.codes[p.start.i:p.end.i], s1.codes[p.start.j:p.end.j],
          p.start.type, p.end.type) for p in aligned], config.scheme))
    paths = []
    for p in partitions:
        start = p.start
        if p.degenerate:
            path = degenerate_alignment(p.height, p.width)
        else:
            path, score = next(solved)
            if score != p.score:
                raise PartitionError(
                    f"partition {start} -> {p.end} aligned to {score}, "
                    f"expected {p.score}")
        paths.append(path.offset(start.i, start.j))
    return paths, sum(p.area for p in aligned)


def run_stage5(s0: Sequence, s1: Sequence, config: PipelineConfig,
               chain: CrosspointChain, *, telemetry=None) -> Stage5Result:
    """Align all partitions, concatenate, emit the binary representation.

    :func:`align_partitions` aligns every partition through one
    :func:`global_align` call.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    tick = time.perf_counter()
    partitions = chain.partitions()
    for p in partitions:
        if not p.degenerate and p.max_dim > config.max_partition_size:
            raise PartitionError(
                f"stage 5 received an oversized partition ({p.max_dim} > "
                f"{config.max_partition_size}); stage 4 must run first")

    with tel.span("stage5", partitions=len(partitions)) as stage_span:
        pieces, cells = align_partitions(s0, s1, partitions, config)

        alignment = Alignment.concat_all(pieces)
        best = chain.best_score
        rescored = alignment.score(s0, s1, config.scheme)
        if rescored != best:
            raise PartitionError(
                f"concatenated alignment rescored to {rescored}, expected {best}")
        binary = BinaryAlignment.from_alignment(alignment, best)
        wall = time.perf_counter() - tick
        result = Stage5Result(
            alignment=alignment,
            binary=binary,
            partitions_aligned=len(partitions),
            cells=cells,
            wall_seconds=wall,
            modeled_seconds=host_seconds(cells, config.host, threads=1),
        )
        stage_span.set(cells=result.cells,
                       partitions=result.partitions_aligned,
                       score=best, wall_seconds=result.wall_seconds)
        tel.metrics.counter("cells.swept").add(result.cells)
        return result
