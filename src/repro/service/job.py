"""Job model: what one schedulable alignment is.

A :class:`JobSpec` is the immutable submission — which two sequences
(FASTA paths or a catalog entry), the pipeline knobs that shape the
result, and the scheduling envelope (priority, per-attempt deadline,
retry budget).  A :class:`JobRecord` is the queue's mutable view of one
spec: state machine, attempt/failure counters, timestamps, and the
result payload once the job lands.

Specs round-trip through plain JSON (``to_json``/``from_json``) because
both the queue journal and the ``repro batch`` spec file speak JSON.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, fields
from typing import Any

from repro.errors import ConfigError
from repro.align.scoring import PAPER_SCHEME, ScoringScheme
from repro.core.config import PipelineConfig, small_config
from repro.sequences.catalog import get_entry
from repro.sequences.fasta import read_fasta
from repro.sequences.sequence import Sequence


class JobState:
    """The job lifecycle (see docs/API.md for the diagram).

    PENDING -> RUNNING -> SUCCEEDED | FAILED
    PENDING -> CACHED                        (duplicate submission)
    RUNNING -> PENDING                       (failed attempt with retries
                                              left; resumes from checkpoint)
    PENDING | RUNNING -> CANCELLED           (explicit cancellation; a
                                              running attempt is terminated)
    RUNNING -> QUARANTINED                   (crash-loop: too many attempts
                                              ended abnormally — crash or
                                              stall — without reporting)
    """

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CACHED = "cached"
    CANCELLED = "cancelled"
    QUARANTINED = "quarantined"

    TERMINAL = frozenset({SUCCEEDED, FAILED, CACHED, CANCELLED, QUARANTINED})


_AUTO_IDS = itertools.count(1)

#: Spec fields earlier versions wrote and this one no longer accepts.
#: None of them ever changed a result, so a journal replay drops them;
#: a POST body or spec file naming one is refused as unknown.
RETIRED_FIELDS = ("kernel", "executor", "workers")


@dataclass(frozen=True)
class JobSpec:
    """One alignment job: inputs, pipeline knobs, scheduling envelope.

    Inputs are either two FASTA paths (``seq0``/``seq1``) or one
    synthetic catalog entry (``catalog`` + ``scale`` + ``seed``) —
    exactly one of the two forms must be given.

    ``checkpoint_every_rows`` defaults on (64 rows) because retries
    resume Stage 1 from the latest checkpoint; set it to ``None`` to make
    every retry start over.

    Unknown fields are rejected by :meth:`from_json`; a journal replay
    first drops the :data:`RETIRED_FIELDS` older specs still carry.

    ``stall_seconds`` and ``max_rss_bytes`` override the service-wide
    supervision defaults per job (``None`` defers to the supervisor).

    ``inject_failure_row`` is a test/chaos hook: the *first* attempt
    raises once the Stage-1 sweep passes that row, exercising the
    checkpoint-retry path end to end.  ``inject_hang_row`` hangs the
    first attempt instead (before writing anything to the result pipe at
    row 0 — the stall detector's worst case), and
    ``inject_crash_attempts`` makes the first N attempts die via
    ``os._exit`` without reporting, exercising the crash-loop quarantine.
    """

    job_id: str = ""
    seq0: str | None = None
    seq1: str | None = None
    catalog: str | None = None
    scale: int = 8192
    seed: int = 0
    scheme: ScoringScheme = PAPER_SCHEME
    block_rows: int = 64
    sra_rows: int = 8
    max_partition_size: int = 32
    checkpoint_every_rows: int | None = 64
    priority: int = 0
    deadline_seconds: float | None = None
    max_retries: int = 2
    stall_seconds: float | None = None
    max_rss_bytes: int | None = None
    inject_failure_row: int | None = None
    inject_hang_row: int | None = None
    inject_crash_attempts: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            object.__setattr__(self, "job_id", f"job-{next(_AUTO_IDS):04d}")
        paths = self.seq0 is not None or self.seq1 is not None
        if paths and (self.seq0 is None or self.seq1 is None):
            raise ConfigError(
                f"job {self.job_id!r}: seq0 and seq1 must be given together")
        if paths == (self.catalog is not None):
            raise ConfigError(
                f"job {self.job_id!r}: give either seq0/seq1 paths or a "
                f"catalog key, not both or neither")
        if self.max_retries < 0:
            raise ConfigError(
                f"job {self.job_id!r}: max_retries must be non-negative")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigError(
                f"job {self.job_id!r}: deadline_seconds must be positive")
        if self.stall_seconds is not None and self.stall_seconds <= 0:
            raise ConfigError(
                f"job {self.job_id!r}: stall_seconds must be positive")
        if self.max_rss_bytes is not None and self.max_rss_bytes <= 0:
            raise ConfigError(
                f"job {self.job_id!r}: max_rss_bytes must be positive")
        if self.inject_crash_attempts < 0:
            raise ConfigError(
                f"job {self.job_id!r}: inject_crash_attempts must be "
                f"non-negative")
        # Pipeline-knob validation is PipelineConfig's job; probe it now so
        # a bad spec is rejected at submit time, not inside a worker.
        self.pipeline_config(n=max(4096, self.block_rows))

    def load_sequences(self) -> tuple[Sequence, Sequence]:
        """Materialize the input pair (reads FASTA or builds the catalog
        entry deterministically)."""
        if self.catalog is not None:
            return get_entry(self.catalog).build(scale=self.scale,
                                                 seed=self.seed)
        return read_fasta(self.seq0), read_fasta(self.seq1)

    def pipeline_config(self, n: int) -> PipelineConfig:
        """The scaled pipeline configuration for an ``n``-column run."""
        return small_config(
            block_rows=self.block_rows, n=n, sra_rows=self.sra_rows,
            max_partition_size=self.max_partition_size, scheme=self.scheme,
            checkpoint_every_rows=self.checkpoint_every_rows)

    # ------------------------------------------------------------- codecs
    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "scheme":
                value = [value.match, value.mismatch,
                         value.gap_first, value.gap_ext]
            out[f.name] = value
        return out

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown job spec fields: {sorted(unknown)}")
        kwargs = dict(data)
        scheme = kwargs.get("scheme")
        if isinstance(scheme, (list, tuple)):
            kwargs["scheme"] = ScoringScheme(*scheme)
        return cls(**kwargs)


@dataclass
class JobRecord:
    """The queue's mutable view of one submitted spec."""

    spec: JobSpec
    state: str = JobState.PENDING
    attempts: int = 0          # 'started' events (reporting)
    failures: int = 0          # failed attempts (the retry budget ledger)
    interruptions: int = 0     # attempts ended without charging the budget
    crashes: int = 0           # abnormal endings (the quarantine ledger)
    not_before: float | None = None   # backoff: earliest next dispatch
    submitted_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    cache_key: str | None = None
    cache_hit: bool = False
    diagnostics: str | None = None    # quarantine bundle path

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def done(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def wall_seconds(self) -> float:
        if self.started_unix is None or self.finished_unix is None:
            return 0.0
        return self.finished_unix - self.started_unix

    def to_json(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_json(),
            "state": self.state,
            "attempts": self.attempts,
            "failures": self.failures,
            "interruptions": self.interruptions,
            "crashes": self.crashes,
            "not_before": self.not_before,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "result": self.result,
            "error": self.error,
            "cache_key": self.cache_key,
            "cache_hit": self.cache_hit,
            "diagnostics": self.diagnostics,
        }
