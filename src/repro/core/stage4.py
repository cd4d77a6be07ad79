"""Stage 4 — Myers-Miller with balanced splitting and orthogonal execution
(Section IV-E).

The crosspoint chain from Stage 3 still bounds partitions that may be far
larger than the *maximum partition size*.  Stage 4 iterates: every
oversized partition is split once per iteration (its crosspoint count can
double each round) until every partition's largest dimension fits.

* **Balanced splitting** halves the largest dimension — a wide partition
  is split at its middle *column* (implemented by transposing the
  sub-problem) — so narrow partitions cannot keep their disproportionate
  dimension across many iterations (Figure 10).
* **Orthogonal execution** uses the partition's known score as the
  matching goal: the reverse half stops at the first goal hit, processing
  ~50% of its area on average (~25% of the partition, Table IX's
  Time_1 vs Time_2).

Degenerate partitions (one side empty — a pure gap run) are exempt: Stage
5 aligns them in O(length) regardless of size.

The per-iteration records (H_max, W_max, crosspoint count, time) are the
rows of Table IX.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar

from repro.constants import swap_gap_type
from repro.errors import PartitionError
from repro.align.myers_miller import MMConfig, MMStats, find_midpoints
from repro.core.config import PipelineConfig
from repro.core.crosspoints import Crosspoint, CrosspointChain, Partition
from repro.core.result import StageResult
from repro.gpusim.perf import host_seconds
from repro.sequences.sequence import Sequence
from repro.telemetry.runtime import NULL_TELEMETRY


@dataclass(frozen=True)
class Stage4Iteration:
    """One refinement round — a row of Table IX."""

    index: int
    h_max: int
    w_max: int
    crosspoints: int
    cells: int
    wall_seconds: float
    modeled_seconds: float


@dataclass(frozen=True)
class Stage4Result(StageResult):
    stage: ClassVar[str] = "4"

    crosspoints: tuple[Crosspoint, ...]
    iterations: tuple[Stage4Iteration, ...]
    cells: int
    wall_seconds: float
    modeled_seconds: float


def split_partitions(s0: Sequence, s1: Sequence, partitions,
                     config: PipelineConfig, mm_config: MMConfig,
                     stats: MMStats, *, tracer=None) -> list[Crosspoint]:
    """One balanced, goal-guided Myers-Miller split of every partition,
    swept together as the lanes of one :func:`find_midpoints` call.

    A partition wider than tall (or one row tall) is split on its
    transpose, so its middle *column* becomes the split line.
    """
    problems, flips = [], []
    for p in partitions:
        if p.degenerate:
            raise PartitionError("degenerate partitions are not split")
        rows, cols = s0.codes[p.start.i:p.end.i], s1.codes[p.start.j:p.end.j]
        start_gap, end_gap = p.start.type, p.end.type
        flip = (mm_config.balanced and p.width > p.height) or p.height < 2
        if flip:
            rows, cols = cols, rows
            start_gap, end_gap = swap_gap_type(start_gap), swap_gap_type(end_gap)
        problems.append((rows, cols, start_gap, end_gap, p.score))
        flips.append(flip)
    splits = find_midpoints(problems, config.scheme, config=mm_config,
                            stats=stats, tracer=tracer)
    points = []
    for p, flip, (r, j, join, top_value) in zip(partitions, flips, splits):
        if flip:
            r, j, join = j, r, swap_gap_type(join)
        points.append(Crosspoint(p.start.i + r, p.start.j + j,
                                 p.start.score + top_value, join))
    return points


def split_partition(s0: Sequence, s1: Sequence, partition: Partition,
                    config: PipelineConfig, mm_config: MMConfig,
                    stats: MMStats, *, tracer=None) -> Crosspoint:
    """One balanced, goal-guided Myers-Miller split of a partition."""
    return split_partitions(s0, s1, [partition], config, mm_config, stats,
                            tracer=tracer)[0]


def _oversized(partition: Partition, limit: int) -> bool:
    return not partition.degenerate and partition.max_dim > limit


def run_stage4(s0: Sequence, s1: Sequence, config: PipelineConfig,
               chain: CrosspointChain, *, telemetry=None) -> Stage4Result:
    """Refine the chain until every partition fits max_partition_size.

    Each iteration's splits run as the fused lanes of one
    :func:`split_partitions` call.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    mm_config = MMConfig(orthogonal=config.stage4_orthogonal,
                         balanced=config.stage4_balanced,
                         strip=max(1, config.max_partition_size))
    limit = config.max_partition_size
    iterations: list[Stage4Iteration] = []
    total_cells = 0
    total_wall = 0.0
    total_modeled = 0.0
    total_splits = 0

    with tel.span("stage4", max_partition_size=limit) as stage_span:
        it = 0
        while True:
            partitions = chain.partitions()
            todo = [(k, p) for k, p in enumerate(partitions)
                    if _oversized(p, limit)]
            if not todo:
                break
            it += 1
            tick = time.perf_counter()
            stats = MMStats()
            new_points = split_partitions(
                s0, s1, [p for _, p in todo], config, mm_config, stats,
                tracer=tel.tracer)

            points: list[Crosspoint] = list(chain.points)
            # Insert new crosspoints after their partition's start point;
            # walk in reverse so earlier indices stay valid.
            for (k, _), point in sorted(zip(todo, new_points),
                                        key=lambda t: -t[0][0]):
                points.insert(k + 1, point)
            new_chain = CrosspointChain(points)
            wall = time.perf_counter() - tick
            cells = stats.cells_forward + stats.cells_reverse
            modeled = host_seconds(cells, config.host, threads=1)
            parts_before = partitions
            iterations.append(Stage4Iteration(
                index=it,
                h_max=max(p.height for p in parts_before),
                w_max=max(p.width for p in parts_before),
                crosspoints=len(chain),
                cells=cells,
                wall_seconds=wall,
                modeled_seconds=modeled,
            ))
            total_cells += cells
            total_wall += wall
            total_modeled += modeled
            total_splits += len(todo)
            chain = new_chain

        result = Stage4Result(
            crosspoints=chain.points,
            iterations=tuple(iterations),
            cells=total_cells,
            wall_seconds=total_wall,
            modeled_seconds=total_modeled,
        )
        stage_span.set(iterations=it, splits=total_splits,
                       cells=result.cells,
                       crosspoints=len(result.crosspoints),
                       wall_seconds=result.wall_seconds)
        tel.metrics.counter("cells.swept").add(result.cells)
        tel.metrics.counter("stage4.partitions_split").add(total_splits)
        tel.metrics.gauge("crosspoints.L4").set(len(result.crosspoints))
        return result
