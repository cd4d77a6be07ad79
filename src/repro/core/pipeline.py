"""The CUDAlign 2.0 pipeline orchestrator (Section IV).

Runs the six stages in order, skipping the ones an input does not need
(a zero best score ends after Stage 1; Stage 3 is skipped when Stage 2
saved no special columns; Stage 4 when every partition already fits), and
enforces the pipeline's global invariants:

* the crosspoint chain is monotone and brackets the best score;
* every partition rescores exactly to its crosspoint bracket;
* the final alignment rescores to the Stage-1 best score.

Observability: every run is traced through :mod:`repro.telemetry` — one
``pipeline`` root span with one child span per executed stage, a metrics
registry (cells swept, bytes flushed, crosspoint counts, ...), and typed
:class:`~repro.telemetry.PipelineObserver` notifications.  The collected
span records and the metrics snapshot ride on the returned
:class:`PipelineResult`; with a ``workdir`` set, a ``manifest.json``
recording the whole run is written there too.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError, IntegrityError
from repro.integrity.codec import KIND_SPECIAL_LINE
from repro.align.alignment import Alignment, Composition
from repro.core.checkpoint import checkpoint_row
from repro.core.config import PipelineConfig
from repro.core.crosspoints import CrosspointChain
from repro.core.result import StageResult
from repro.core.stage1 import Stage1Result, run_stage1
from repro.core.stage2 import Stage2Result, run_stage2
from repro.core.stage3 import Stage3Result, run_stage3
from repro.core.stage4 import Stage4Result, run_stage4
from repro.core.stage5 import Stage5Result, run_stage5
from repro.core.stage6 import Stage6Result, run_stage6
from repro.sequences.sequence import Sequence
from repro.storage.binary_alignment import BinaryAlignment
from repro.storage.sra import SpecialLineStore
from repro.telemetry.manifest import (build_manifest, sequence_digest,
                                      write_manifest)
from repro.telemetry.observer import as_observer
from repro.telemetry.runtime import Telemetry
from repro.telemetry.sinks import InMemorySink


@dataclass(frozen=True)
class PipelineResult:
    """Everything the six stages produced, plus aggregate statistics."""

    s0_name: str
    s1_name: str
    m: int
    n: int
    best_score: int
    alignment: Alignment | None
    binary: BinaryAlignment | None
    composition: Composition | None
    stage1: Stage1Result
    stage2: Stage2Result | None
    stage3: Stage3Result | None
    stage4: Stage4Result | None
    stage5: Stage5Result | None
    stage6: Stage6Result | None
    wall_seconds: float
    #: Metrics snapshot of the run (``MetricsRegistry.snapshot()``).
    metrics: dict[str, Any] | None = None
    #: JSON-safe span records collected by the run's in-memory sink.
    spans: tuple[dict[str, Any], ...] = ()

    @property
    def matrix_cells(self) -> int:
        """DP matrix size m*n (the x-axis of Figure 11)."""
        return self.m * self.n

    @property
    def crosspoint_counts(self) -> dict[str, int]:
        """|L_k| after each stage (Table VIII)."""
        counts = {"L1": 1}
        if self.stage2 is not None:
            counts["L2"] = len(self.stage2.crosspoints)
        if self.stage3 is not None:
            counts["L3"] = len(self.stage3.crosspoints)
        if self.stage4 is not None:
            counts["L4"] = len(self.stage4.crosspoints)
        return counts

    def stages(self) -> dict[str, StageResult]:
        """The executed stages, keyed "1" .. "6" (skipped stages absent)."""
        out: dict[str, StageResult] = {}
        for stage in (self.stage1, self.stage2, self.stage3,
                      self.stage4, self.stage5, self.stage6):
            if stage is not None:
                out[type(stage).stage] = stage
        return out

    def stage_wall_seconds(self) -> dict[str, float]:
        """Measured wall seconds per stage (0.0 for skipped stages)."""
        executed = self.stages()
        return {key: executed[key].wall_seconds if key in executed else 0.0
                for key in ("1", "2", "3", "4", "5", "6")}

    def stage_modeled_seconds(self) -> dict[str, float]:
        """Modeled GTX-285/host seconds per stage (Tables V and VII)."""
        executed = self.stages()
        return {key: executed[key].modeled_seconds if key in executed else 0.0
                for key in ("1", "2", "3", "4", "5", "6")}

    def stage_stats(self) -> dict[str, dict[str, Any]]:
        """Per-stage ``StageResult.stats()`` dicts, keyed by stage."""
        return {key: stage.stats() for key, stage in self.stages().items()}

    @property
    def modeled_total_seconds(self) -> float:
        return sum(self.stage_modeled_seconds().values())

    @property
    def alignment_length(self) -> int:
        return len(self.alignment) if self.alignment is not None else 0

    @property
    def gap_columns(self) -> int:
        if self.composition is None:
            return 0
        return self.composition.gap_opens + self.composition.gap_extensions


class CUDAlign:
    """The public face of the reproduction.

    >>> result = CUDAlign().run(s0, s1)
    >>> result.best_score, result.alignment.start, result.alignment.end

    Args:
        config: pipeline configuration (paper defaults if omitted).
        workdir: directory for the disk-backed SRA and the run manifest;
            ``None`` keeps special lines in memory (identical semantics,
            byte budgets included) and writes no manifest.
        progress: deprecated ``progress(stage, fraction)`` callable;
            wrapped in a :class:`~repro.telemetry.CallbackObserver` (with
            a ``DeprecationWarning``) — pass ``observer`` instead.
        observer: a :class:`~repro.telemetry.PipelineObserver` receiving
            typed stage/metric notifications.
        sinks: extra :class:`~repro.telemetry.TelemetrySink` instances
            (e.g. a :class:`~repro.telemetry.JsonLinesSink` trace file)
            that receive every span and metric event of the run.  The
            pipeline does not close them — the caller owns their
            lifecycle.
        manifest_extra: JSON-safe payload recorded under the manifest's
            ``extra`` key (the job service stamps job id/attempt here).
        stage1_sweeper: pre-built Stage-1 sweeper injected into
            :func:`~repro.core.stage1.run_stage1` (the worker pool's
            micro-batcher presweeps many jobs' lanes in one fused batch
            and hands each pipeline its finished lane); ``None`` builds
            one normally.  Single use: consumed by the next ``run()``.
    """

    def __init__(self, config: PipelineConfig | None = None,
                 workdir: str | os.PathLike | None = None,
                 progress=None, *, observer=None, sinks: tuple = (),
                 manifest_extra: dict | None = None, stage1_sweeper=None):
        self.config = config or PipelineConfig()
        self.workdir = workdir
        self.progress = progress
        self.manifest_extra = manifest_extra
        self.stage1_sweeper = stage1_sweeper
        self.sinks = tuple(sinks)
        observers = []
        if observer is not None:
            observers.append(as_observer(observer))
        if progress is not None:
            observers.append(as_observer(progress))
        self.observers = tuple(observers)

    def run(self, s0: Sequence, s1: Sequence, *, visualize: bool = True
            ) -> PipelineResult:
        """Align ``s0`` x ``s1`` end to end."""
        if not isinstance(s0, Sequence) or not isinstance(s1, Sequence):
            raise ConfigError("run() expects Sequence inputs")
        workdir = os.fspath(self.workdir) if self.workdir is not None else None
        if workdir is not None:
            _validate_workdir(workdir)

        memory = InMemorySink()
        tel = Telemetry(sinks=(memory,) + self.sinks,
                        observers=self.observers)
        with tel.span("pipeline", s0=s0.name, s1=s1.name,
                      m=len(s0), n=len(s1)) as root:
            result = self._run_stages(s0, s1, tel, workdir,
                                      visualize=visualize)
            root.set(best_score=result.best_score,
                     wall_seconds=result.wall_seconds)
        result = dataclasses.replace(
            result,
            metrics=tel.metrics.snapshot(),
            spans=tuple(span.to_record() for span in memory.spans))
        if workdir is not None:
            self._write_manifest(workdir, s0, s1, result)
        return result

    def _run_stages(self, s0: Sequence, s1: Sequence, tel: Telemetry,
                    workdir: str | None, *, visualize: bool
                    ) -> PipelineResult:
        config = self.config
        tick = time.perf_counter()
        sra_dir = os.path.join(workdir, "sra") if workdir is not None else None
        sca_dir = os.path.join(workdir, "sca") if workdir is not None else None

        checkpoint = None
        if workdir is not None and config.checkpoint_every_rows:
            checkpoint = os.path.join(workdir, "stage1.ckpt")
        # A valid Stage-1 checkpoint means this run resumes a crashed one:
        # re-register the special rows the dead process already flushed, so
        # Stage 2 finds them without Stage 1 re-sweeping the prefix.
        try:
            resuming = (checkpoint is not None and
                        checkpoint_row(checkpoint, len(s0), len(s1))
                        is not None)
        except IntegrityError:
            # Corrupt checkpoint: Stage 1 quarantines it and sweeps fresh;
            # don't trust the dead run's SRA registration either.
            resuming = False
        sra = SpecialLineStore(config.sra_bytes, directory=sra_dir,
                               tracer=tel.tracer, recover=resuming)
        if sra.corrupt_lines:
            # Lines the recovery replay had to drop: Stage 1 recomputes
            # and re-flushes them as the sweep passes.
            tel.corruption(KIND_SPECIAL_LINE, sra_dir or "<sra>",
                           action="recomputed", count=sra.corrupt_lines)
        sca = SpecialLineStore(config.sca_bytes, directory=sca_dir,
                               tracer=tel.tracer)

        def account_io() -> None:
            tel.metrics.counter("sra.bytes_flushed").add(
                sra.bytes_written + sca.bytes_written)
            tel.metrics.counter("sra.bytes_read").add(
                sra.bytes_read + sca.bytes_read)

        tel.stage_start("stage1")
        sweeper, self.stage1_sweeper = self.stage1_sweeper, None
        stage1 = run_stage1(s0, s1, config, sra,
                            checkpoint_path=checkpoint,
                            checkpoint_every_rows=config.checkpoint_every_rows,
                            telemetry=tel, sweeper=sweeper)
        tel.stage_end("stage1", stage1)
        if stage1.best_score <= 0:
            # Nothing aligns: the empty alignment is optimal (score 0).
            account_io()
            return PipelineResult(
                s0_name=s0.name, s1_name=s1.name, m=len(s0), n=len(s1),
                best_score=0, alignment=None, binary=None, composition=None,
                stage1=stage1, stage2=None, stage3=None, stage4=None,
                stage5=None, stage6=None,
                wall_seconds=time.perf_counter() - tick)

        tel.stage_start("stage2")
        stage2 = run_stage2(s0, s1, config, sra, sca, stage1, telemetry=tel)
        tel.stage_end("stage2", stage2)
        chain = CrosspointChain(stage2.crosspoints)

        stage3 = None
        if any(band.column_positions for band in stage2.bands):
            tel.stage_start("stage3")
            stage3 = run_stage3(s0, s1, config, sca, stage2, telemetry=tel)
            chain = CrosspointChain(stage3.crosspoints)
            tel.stage_end("stage3", stage3)

        stage4 = None
        limit = config.max_partition_size
        if any(not p.degenerate and p.max_dim > limit
               for p in chain.partitions()):
            tel.stage_start("stage4")
            stage4 = run_stage4(s0, s1, config, chain, telemetry=tel)
            chain = CrosspointChain(stage4.crosspoints)
            tel.stage_end("stage4", stage4)

        tel.stage_start("stage5")
        stage5 = run_stage5(s0, s1, config, chain, telemetry=tel)
        tel.stage_end("stage5", stage5)

        stage6 = None
        if visualize:
            tel.stage_start("stage6")
            stage6 = run_stage6(s0, s1, config, stage5.binary, telemetry=tel)
            tel.stage_end("stage6", stage6)

        account_io()
        alignment = stage5.alignment
        composition = alignment.composition(s0, s1, config.scheme)
        return PipelineResult(
            s0_name=s0.name, s1_name=s1.name, m=len(s0), n=len(s1),
            best_score=stage1.best_score, alignment=alignment,
            binary=stage5.binary, composition=composition,
            stage1=stage1, stage2=stage2, stage3=stage3, stage4=stage4,
            stage5=stage5, stage6=stage6,
            wall_seconds=time.perf_counter() - tick)

    def _write_manifest(self, workdir: str, s0: Sequence, s1: Sequence,
                        result: PipelineResult) -> str:
        manifest = build_manifest(
            sequences={
                "s0": {"name": s0.name, "length": result.m,
                       "sha256": sequence_digest(s0.codes.tobytes())},
                "s1": {"name": s1.name, "length": result.n,
                       "sha256": sequence_digest(s1.codes.tobytes())},
            },
            config=dataclasses.asdict(self.config),
            result={
                "best_score": result.best_score,
                "alignment_length": result.alignment_length,
                "crosspoint_counts": result.crosspoint_counts,
                "wall_seconds": result.wall_seconds,
                "modeled_total_seconds": result.modeled_total_seconds,
            },
            stages=result.stage_stats(),
            stage_wall_seconds=result.stage_wall_seconds(),
            metrics=result.metrics or {},
            spans=list(result.spans),
            extra=self.manifest_extra,
        )
        return write_manifest(os.path.join(workdir, "manifest.json"),
                              manifest)


def _validate_workdir(workdir: str) -> None:
    """Fail fast (before Stage 1) when the workdir cannot take writes."""
    try:
        os.makedirs(workdir, exist_ok=True)
        probe = os.path.join(workdir, ".write-probe")
        with open(probe, "w", encoding="utf-8") as handle:
            handle.write("ok\n")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(
            f"workdir {workdir!r} is not writable: {exc}") from exc
