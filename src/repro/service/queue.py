"""Persistent job queue: a priority queue with a JSON-lines journal.

Every state transition appends one event line to ``journal.jsonl``
(``submitted`` events embed the full spec), so the journal alone
reconstructs the queue: :meth:`JobQueue.recover` replays it and returns
a queue in which finished jobs stay finished and interrupted ones —
submitted or mid-run when the service died — are pending again.  An
interrupted attempt does not consume retry budget; only a *failed*
attempt (``attempt_failed`` event) does.

Scheduling order is highest ``priority`` first, FIFO within a priority.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import Any, Iterable, NamedTuple

from repro.errors import ConfigError, IntegrityError
from repro.integrity import codec
from repro.service.job import RETIRED_FIELDS, JobRecord, JobSpec, JobState

#: Journal file name inside a service root.
JOURNAL_NAME = "journal.jsonl"


class JournalReplay(NamedTuple):
    """What folding a journal yields: records, raw events, damage count."""

    records: list[JobRecord]
    events: list[dict[str, Any]]
    corrupt: int


class JobQueue:
    """In-memory priority queue mirrored to an append-only journal."""

    def __init__(self, journal_path: str | os.PathLike):
        self.journal_path = os.fspath(journal_path)
        parent = os.path.dirname(self.journal_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._records: dict[str, JobRecord] = {}
        self._order: list[str] = []   # submission order (FIFO tiebreak)
        self._index: dict[str, int] = {}   # job_id -> submission index
        # Dispatch heap: (-priority, submission index, job_id).  Entries
        # are pushed whenever a job (re)enters PENDING and invalidated
        # lazily — a popped entry whose record is no longer pending is
        # dropped — so selection is O(log q) at any queue depth instead
        # of a linear scan.  The FIFO tiebreak is the *submission* index,
        # so a retried job keeps its original slot within its priority.
        self._heap: list[tuple[int, int, str]] = []
        #: Corrupt journal records skipped by the last :meth:`recover`.
        self.corrupt_records = 0

    # ------------------------------------------------------------ journal
    def _log(self, event: str, job_id: str, **payload: Any) -> None:
        # Sealed (per-line CRC) and torn-line safe; see
        # codec.append_journal_record for the crash-consistency details.
        codec.append_journal_record(
            self.journal_path,
            {"event": event, "job_id": job_id, "time": time.time(),
             **payload})

    # ------------------------------------------------------------- submit
    def submit(self, spec: JobSpec) -> JobRecord:
        if spec.job_id in self._records:
            raise ConfigError(f"job id {spec.job_id!r} already submitted")
        record = JobRecord(spec=spec)
        self._records[spec.job_id] = record
        self._index[spec.job_id] = len(self._order)
        self._order.append(spec.job_id)
        self._push(record)
        self._log("submitted", spec.job_id, spec=spec.to_json(),
                  priority=spec.priority)
        return record

    def submit_many(self, specs: Iterable[JobSpec]) -> list[JobRecord]:
        return [self.submit(spec) for spec in specs]

    # ---------------------------------------------------------- selection
    def _push(self, record: JobRecord) -> None:
        """Heap entry for a record that just became PENDING."""
        heapq.heappush(self._heap, (-record.spec.priority,
                                    self._index[record.job_id],
                                    record.job_id))

    def next_pending(self, skip: frozenset[str] | set[str] = frozenset(),
                     now: float | None = None) -> JobRecord | None:
        """Highest-priority pending record not in ``skip`` (FIFO within).

        A peek, not a pop: the chosen record stays pending (and in the
        heap) until a ``mark_*`` transition moves it on.  Records backed
        off past ``now`` (their ``not_before``) are skipped but kept —
        they become eligible again once the clock catches up, still in
        their original FIFO slot.
        """
        if now is None:
            now = time.time()
        popped: list[tuple[int, int, str]] = []
        found: JobRecord | None = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            record = self._records.get(entry[2])
            if record is None or record.state != JobState.PENDING:
                continue        # stale entry: the job moved on
            popped.append(entry)
            if record.job_id in skip:
                continue
            if record.not_before is not None and record.not_before > now:
                continue        # backing off: eligible later
            found = record
            break
        for entry in popped:
            heapq.heappush(self._heap, entry)
        return found

    def next_not_before(self) -> float | None:
        """Earliest ``not_before`` among pending jobs (idle-wait hint)."""
        times = [r.not_before for r in self._records.values()
                 if r.state == JobState.PENDING and r.not_before is not None]
        return min(times) if times else None

    # -------------------------------------------------------- transitions
    def mark_running(self, record: JobRecord) -> None:
        record.state = JobState.RUNNING
        record.attempts += 1
        record.not_before = None
        if record.started_unix is None:
            record.started_unix = time.time()
        self._log("started", record.job_id, attempt=record.attempts)

    def mark_succeeded(self, record: JobRecord, result: dict[str, Any]) -> None:
        record.state = JobState.SUCCEEDED
        record.result = result
        record.finished_unix = time.time()
        self._log("succeeded", record.job_id, attempt=record.attempts,
                  result=_summary(result))

    def mark_cached(self, record: JobRecord, result: dict[str, Any],
                    cache_key: str) -> None:
        record.state = JobState.CACHED
        record.result = result
        record.cache_hit = True
        record.cache_key = cache_key
        if record.started_unix is None:
            record.started_unix = time.time()
        record.finished_unix = time.time()
        self._log("cached", record.job_id, cache_key=cache_key,
                  result=_summary(result))

    def mark_retry(self, record: JobRecord, error: str,
                   not_before: float | None = None) -> None:
        """One attempt failed; the job goes back to pending.

        ``not_before`` (unix seconds) is the retry-backoff hold: the
        record stays in its original FIFO slot but ``next_pending`` will
        not hand it out before then.  Journaled, so a replay restores the
        same hold instead of hot-requeueing.
        """
        record.state = JobState.PENDING
        record.failures += 1
        record.error = error
        record.not_before = not_before
        self._push(record)
        self._log("attempt_failed", record.job_id, attempt=record.attempts,
                  failures=record.failures, error=error,
                  not_before=not_before)

    def mark_interrupted(self, record: JobRecord, reason: str,
                         not_before: float | None = None,
                         crash: bool = True) -> None:
        """One attempt ended abnormally (crash, stall): requeue without
        charging the retry budget.

        ``crash`` attempts count toward the quarantine ledger
        (:attr:`JobRecord.crashes`); the service compares that ledger to
        its crash-loop threshold and quarantines instead when exceeded.
        """
        record.state = JobState.PENDING
        record.interruptions += 1
        if crash:
            record.crashes += 1
        record.error = reason
        record.not_before = not_before
        self._push(record)
        self._log("attempt_interrupted", record.job_id,
                  attempt=record.attempts, crashes=record.crashes,
                  interruptions=record.interruptions, reason=reason,
                  not_before=not_before, crash=crash)

    def mark_quarantined(self, record: JobRecord, error: str,
                         diagnostics: str | None = None) -> None:
        """Crash-loop terminal state: the job will not be retried.

        ``diagnostics`` is the on-disk triage bundle path
        (:func:`repro.service.supervision.write_diagnostics`)."""
        record.state = JobState.QUARANTINED
        record.error = error
        record.diagnostics = diagnostics
        record.finished_unix = time.time()
        self._log("quarantined", record.job_id, attempt=record.attempts,
                  crashes=record.crashes, error=error,
                  diagnostics=diagnostics)

    def mark_cancelled(self, record: JobRecord, reason: str = "") -> None:
        """Cancellation is terminal; callers terminate any running attempt
        first (:meth:`~repro.service.worker.WorkerPool.cancel`)."""
        if record.done:
            raise ConfigError(
                f"job {record.job_id!r} is already {record.state}")
        record.state = JobState.CANCELLED
        record.error = reason or "cancelled"
        record.finished_unix = time.time()
        self._log("cancelled", record.job_id, attempt=record.attempts,
                  reason=record.error)

    def mark_failed(self, record: JobRecord, error: str) -> None:
        record.state = JobState.FAILED
        record.failures += 1
        record.error = error
        record.finished_unix = time.time()
        self._log("failed", record.job_id, attempt=record.attempts,
                  failures=record.failures, error=error)

    # ------------------------------------------------------------- views
    def records(self) -> list[JobRecord]:
        return [self._records[job_id] for job_id in self._order]

    def get(self, job_id: str) -> JobRecord:
        return self._records[job_id]

    def find(self, job_id: str) -> JobRecord | None:
        """Like :meth:`get` but ``None`` for an unknown id (gateway 404s)."""
        return self._records.get(job_id)

    @property
    def depth(self) -> int:
        """Jobs waiting to run (the queue-depth gauge)."""
        return sum(1 for r in self._records.values()
                   if r.state == JobState.PENDING)

    @property
    def unfinished(self) -> int:
        return sum(1 for r in self._records.values() if not r.done)

    def __len__(self) -> int:
        return len(self._records)

    # ----------------------------------------------------------- recovery
    @classmethod
    def recover(cls, journal_path: str | os.PathLike) -> "JobQueue":
        """Rebuild a queue from its journal (missing file -> empty queue).

        Appends a ``recovered`` event so the journal itself records every
        service (re)start.  Corrupt journal records are skipped and
        counted in :attr:`corrupt_records`; a job whose completion event
        was the corrupt line simply replays as unfinished and runs again.
        """
        queue = cls(journal_path)
        records, _, corrupt = replay_journal(journal_path)
        queue.corrupt_records = corrupt
        for record in records:
            if record.state == JobState.RUNNING:
                # The service died mid-attempt: run it again.  The attempt
                # was interrupted, not failed, so the retry budget is
                # untouched; Stage 1 resumes from the on-disk checkpoint.
                record.state = JobState.PENDING
            queue._records[record.job_id] = record
            queue._index[record.job_id] = len(queue._order)
            queue._order.append(record.job_id)
            if record.state == JobState.PENDING:
                queue._push(record)
        if records:
            queue._log("recovered", "-", jobs=len(records),
                       unfinished=queue.unfinished, corrupt=corrupt)
        return queue


def replay_journal(journal_path: str | os.PathLike) -> JournalReplay:
    """Fold a journal into records (submission order) plus the raw events.

    Read-only: used by recovery, ``repro jobs`` and tests.  Every line is
    checksum-verified (:func:`repro.integrity.codec.verify_record`); a
    corrupt record *anywhere* in the journal — the torn final line of a
    killed process or a flipped bit in the middle — is skipped and
    counted in ``corrupt``, never silently folded into job state.
    Spec fields an older version journalled and this one retired
    (:data:`~repro.service.job.RETIRED_FIELDS`) are dropped, so its
    roots still replay.
    """
    journal_path = os.fspath(journal_path)
    records: dict[str, JobRecord] = {}
    order: list[str] = []
    events: list[dict[str, Any]] = []
    corrupt = 0
    if not os.path.exists(journal_path):
        return JournalReplay([], [], 0)
    try:
        text = codec.read_text(journal_path)
    except FileNotFoundError:
        return JournalReplay([], [], 0)
    except IntegrityError:
        return JournalReplay([], [], 1)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = codec.verify_record(raw, path=journal_path,
                                        lineno=lineno)
        except IntegrityError:
            corrupt += 1
            continue
        events.append(event)
        kind = event.get("event")
        job_id = event.get("job_id")
        if kind == "submitted":
            spec = JobSpec.from_json({
                k: v for k, v in event["spec"].items()
                if k not in RETIRED_FIELDS})
            record = JobRecord(spec=spec,
                               submitted_unix=event.get("time", 0.0))
            records[job_id] = record
            order.append(job_id)
            continue
        record = records.get(job_id)
        if record is None:
            continue
        if kind == "started":
            record.state = JobState.RUNNING
            record.attempts = event.get("attempt", record.attempts + 1)
            record.not_before = None    # as mark_running clears it
            if record.started_unix is None:
                record.started_unix = event.get("time")
        elif kind == "attempt_failed":
            record.state = JobState.PENDING
            record.failures = event.get("failures", record.failures + 1)
            record.error = event.get("error")
            record.not_before = event.get("not_before")
        elif kind == "attempt_interrupted":
            record.state = JobState.PENDING
            record.interruptions = event.get("interruptions",
                                             record.interruptions + 1)
            record.crashes = event.get("crashes", record.crashes)
            record.error = event.get("reason")
            record.not_before = event.get("not_before")
        elif kind == "quarantined":
            record.state = JobState.QUARANTINED
            record.error = event.get("error")
            record.crashes = event.get("crashes", record.crashes)
            record.diagnostics = event.get("diagnostics")
            record.finished_unix = event.get("time")
        elif kind == "succeeded":
            record.state = JobState.SUCCEEDED
            record.result = event.get("result")
            record.finished_unix = event.get("time")
        elif kind == "cached":
            record.state = JobState.CACHED
            record.result = event.get("result")
            record.cache_hit = True
            record.cache_key = event.get("cache_key")
            record.finished_unix = event.get("time")
        elif kind == "failed":
            record.state = JobState.FAILED
            record.failures = event.get("failures", record.failures + 1)
            record.error = event.get("error")
            record.finished_unix = event.get("time")
        elif kind == "cancelled":
            record.state = JobState.CANCELLED
            record.error = event.get("reason", "cancelled")
            record.finished_unix = event.get("time")
    return JournalReplay([records[job_id] for job_id in order], events,
                         corrupt)


def _summary(result: dict[str, Any]) -> dict[str, Any]:
    """The compact slice of a result worth journaling."""
    keys = ("best_score", "alignment_length", "wall_seconds",
            "resumed_from_row", "manifest")
    return {k: result[k] for k in keys if k in result}
