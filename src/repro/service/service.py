"""The batch alignment service: queue + cache + worker pool, end to end.

:class:`AlignmentService` owns one service root directory::

    root/
      journal.jsonl     append-only queue journal (JobQueue)
      cache/<key>.json  result cache entries (ResultCache)
      jobs/<job_id>/    per-job workdir: sra/, stage1.ckpt, manifest.json
      manifest.json     service-level manifest aggregating the run

``run()`` drives every submitted job to a terminal state: duplicates are
served from the :class:`~repro.service.cache.ResultCache` (identical
jobs already in flight are held back and served when their twin lands),
failed attempts are retried up to ``spec.max_retries`` times — resuming
Stage 1 from the job's on-disk checkpoint — and attempts that overrun
``spec.deadline_seconds`` are terminated and count as failures.

Every worker attempt runs a group of one or more jobs; the
micro-batcher (:class:`BatchConfig`) only decides which jobs share one.

Everything is observable through the PR-1 telemetry machinery: the
service keeps ``service.queue_depth`` / ``service.jobs_inflight``
gauges, hit/miss/retry/timeout counters and a ``service.job_seconds``
histogram in a :class:`~repro.telemetry.MetricsRegistry`, emits one
``service.job`` span per finished attempt, and fans everything out to
caller-supplied sinks and :class:`~repro.telemetry.PipelineObserver`\\ s.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ConfigError, StorageError
from repro.core.checkpoint import checkpoint_row
from repro.service.cache import ResultCache, cache_key, config_fingerprint
from repro.service.job import JobRecord, JobSpec, JobState
from repro.service.queue import JOURNAL_NAME, JobQueue
from repro.service.supervision import SupervisorConfig, write_diagnostics
from repro.service.worker import WorkerPool
from repro.telemetry.manifest import (MANIFEST_VERSION, json_safe,
                                      sequence_digest, write_manifest)
from repro.telemetry.observer import as_observer
from repro.telemetry.runtime import Telemetry
from repro.telemetry.sinks import InMemorySink


@dataclass(frozen=True)
class BatchConfig:
    """Micro-batcher policy: when queued small jobs coalesce.

    Small matrices pay more for process dispatch and per-row NumPy
    overhead than for the arithmetic itself — the cost a GPU amortizes
    by fusing many alignments per launch.  The service mirrors that
    host-side: pending jobs at or under ``max_cells`` DP cells join one
    worker attempt whose Stage-1 sweeps run fused through the batched
    kernel (:func:`repro.align.batched.sweep_batched`).

    A job qualifies only when the fused sweep is exactly equivalent to
    its solo run: no per-spec deadline/stall/RSS envelope, no chaos
    injections, and a first attempt (retries resume from their
    checkpoint, so they run solo).  Disqualified jobs run as a group of
    their own and are counted under ``kernel.batch.fallback.<reason>``.

    Attributes:
        max_jobs: most members per attempt; ``1`` turns coalescing off.
        max_cells: a job qualifies when ``m * n`` is at or under this.
    """

    max_jobs: int = 16
    max_cells: int = 1 << 18

    def __post_init__(self) -> None:
        if self.max_jobs < 1:
            raise ConfigError("batch max_jobs must be positive")
        if self.max_cells < 1:
            raise ConfigError("batch max_cells must be positive")


class AlignmentService:
    """Accepts many alignment jobs and drives them to completion.

    Args:
        root: service root directory (created, parents included).
        workers: concurrent worker processes (>= 1).
        resume: recover the queue from an existing journal instead of
            starting empty — unfinished jobs become pending again.
        observer: optional :class:`~repro.telemetry.PipelineObserver`
            receiving metric updates.
        sinks: extra telemetry sinks (e.g. a ``JsonLinesSink`` trace).
        poll_seconds: the longest wait between supervision checks.
            :meth:`run` blocks on the workers' result pipes and wakes on
            every heartbeat, report or child death; only a silent
            attempt (a hang), a retry back-off hold or the disk guard
            waits the full ``poll_seconds`` to be re-checked.
        supervisor: runtime supervision policy
            (:class:`~repro.service.supervision.SupervisorConfig`) —
            stall/RSS guards for the pool, crash-loop quarantine
            threshold, retry backoff and the disk-free watchdog.
            Defaults to backoff-only supervision.
        batching: micro-batcher policy (:class:`BatchConfig`) — when
            queued small jobs coalesce into one fused group attempt.
            Defaults to coalescing up to 16 jobs of <= 2^18 cells.
    """

    def __init__(self, root: str | os.PathLike, *, workers: int = 1,
                 resume: bool = False, observer=None, sinks: tuple = (),
                 poll_seconds: float = 0.02,
                 supervisor: SupervisorConfig | None = None,
                 batching: BatchConfig | None = None):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        # Telemetry first: queue recovery and the cache report corruption
        # incidents through it.
        observers = (as_observer(observer),) if observer is not None else ()
        self._memory = InMemorySink()
        self.telemetry = Telemetry(sinks=(self._memory,) + tuple(sinks),
                                   observers=observers)
        journal = os.path.join(self.root, JOURNAL_NAME)
        self.queue = (JobQueue.recover(journal) if resume
                      else JobQueue(journal))
        if self.queue.corrupt_records:
            self.telemetry.corruption(
                "journal-record", journal, action="requeued",
                count=self.queue.corrupt_records,
                detail="corrupt journal records skipped during recovery")
        self.cache = ResultCache(os.path.join(self.root, "cache"),
                                 telemetry=self.telemetry)
        self.supervisor = (supervisor if supervisor is not None
                           else SupervisorConfig())
        self.pool = WorkerPool(workers,
                               stall_seconds=self.supervisor.stall_seconds,
                               max_rss_bytes=self.supervisor.max_rss_bytes)
        self.disk_guard = self.supervisor.make_disk_guard(self.root)
        self.poll_seconds = poll_seconds
        self.batching = batching if batching is not None else BatchConfig()
        self._inflight_keys: dict[str, str] = {}   # cache key -> job_id
        # Per-job memos: m * n while pending, attempts until terminal.
        self._cells: dict[str, int] = {}
        self._attempt_log: dict[str, list[dict[str, Any]]] = {}
        self._disk_evicted = False

    # ------------------------------------------------------------- submit
    def submit(self, spec: JobSpec) -> JobRecord:
        record = self.queue.submit(spec)
        self.telemetry.metrics.counter("service.jobs_submitted").add(1)
        self._gauges()
        return record

    def submit_many(self, specs: Iterable[JobSpec]) -> list[JobRecord]:
        return [self.submit(spec) for spec in specs]

    # -------------------------------------------------------------- run
    def run(self, max_jobs: int | None = None) -> dict[str, Any]:
        """Process the queue until drained (or ``max_jobs`` finished).

        With ``max_jobs``, no round starts more jobs than that budget
        has left after the jobs finished and in flight this call, so at
        most ``max_jobs`` reach a terminal state; in-flight attempts are
        drained, the rest stay pending in the journal for a later
        ``resume`` run.
        Returns the run summary (also embedded in the service manifest).
        """
        if max_jobs is not None and max_jobs < 1:
            raise ConfigError("max_jobs must be positive")
        tick = time.time()
        finished_this_run = 0
        while True:
            capped = max_jobs is not None and finished_this_run >= max_jobs
            if not capped:
                budget = (None if max_jobs is None else max_jobs
                          - finished_this_run - self.pool.jobs_in_flight)
                finished_this_run += self._dispatch_round(budget)
                capped = max_jobs is not None and finished_this_run >= max_jobs
            if self.pool.in_flight == 0 and (capped or self.queue.depth == 0):
                break
            finished = self.pool.poll()
            if not finished:
                self.pool.wait(self.poll_seconds)
                continue
            for outcome in finished:
                finished_this_run += self._settle(outcome)
            self._gauges()
        self._gauges()
        summary = self._summary(time.time() - tick, finished_this_run)
        self.write_manifest(summary)
        return summary

    def step(self) -> int:
        """One non-blocking poll/settle/dispatch round.

        The incremental counterpart of :meth:`run` for callers that own
        the loop — the gateway's dispatcher thread pumps this whenever a
        worker pipe or a submission wakes it.  Finished attempts settle
        first, so a slot they free is refilled in the same round.
        Returns the number of jobs that reached a terminal state this
        round.
        """
        finished = 0
        for outcome in self.pool.poll():
            finished += self._settle(outcome)
        finished += self._dispatch_round()
        self._gauges()
        return finished

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: a pending one never runs, a running one is
        terminated (its attempt charges no retry budget).  Members that
        already reported settle on their reports.  Returns ``False`` when
        the job is terminal, its own report included; raises
        :class:`ConfigError` for an unknown id.
        """
        record = self.queue.find(job_id)
        if record is None:
            raise ConfigError(f"unknown job id {job_id!r}")
        if record.state == JobState.RUNNING:
            reported, displaced = self.pool.cancel(job_id)
            for outcome in reported:
                self._settle(outcome)
            self._inflight_keys.pop(record.cache_key, None)
            for sibling in displaced:
                # Grouped siblings die with the cancelled job's process;
                # they were collateral, so requeue them without charging
                # any ledger (crash=False keeps quarantine honest).
                self._inflight_keys.pop(sibling.cache_key, None)
                self.queue.mark_interrupted(
                    sibling, "displaced: a grouped sibling was cancelled",
                    crash=False)
                self.telemetry.metrics.counter(
                    "kernel.batch.displaced").add(1)
        if record.done:
            self._gauges()
            return False
        self.queue.mark_cancelled(record)
        self._cells.pop(job_id, None)
        self._attempt_log.pop(job_id, None)
        self.telemetry.metrics.counter("service.jobs_cancelled").add(1)
        self._gauges()
        return True

    def close(self) -> None:
        self.pool.shutdown()
        self.telemetry.close()

    # ---------------------------------------------------------- internals
    @property
    def disk_paused(self) -> bool:
        """Is dispatch currently paused by the disk-free watchdog?"""
        return self.disk_guard is not None and self.disk_guard.paused

    def _disk_ok(self) -> bool:
        """Poll the disk guard; on a low-water trip, pause dispatch and
        evict the result cache once (derived data — the cheapest bytes
        to give back).  Running attempts keep running; only *new*
        dispatches stop until free space recovers past high water."""
        if self.disk_guard is None:
            return True
        was_paused = self.disk_guard.paused
        paused = self.disk_guard.poll()
        metrics = self.telemetry.metrics
        metrics.gauge("supervision.disk_paused").set(1 if paused else 0)
        if paused and not was_paused:
            metrics.counter("supervision.disk_pauses").add(1)
        if paused and not self._disk_evicted:
            metrics.counter("supervision.cache_evicted").add(
                self.cache.evict_all())
            self._disk_evicted = True
        elif not paused:
            self._disk_evicted = False
        return not paused

    def _dispatch_round(self, budget: int | None = None) -> int:
        """Fill free worker slots; serve cache hits. Returns jobs finished
        instantly (cached).

        A job that qualifies for coalescing joins the round's open group
        while it has room; any other job opens a group of its own (a
        disqualified one counts under ``kernel.batch.fallback.<reason>``).
        A group takes its worker slot when it opens, and the round stops
        at the first job that finds none, so queue order decides who
        runs.  The open group dispatches once full or at the round's end.

        With ``budget``, the round starts at most that many jobs, cache
        hits and group members included.
        """
        if not self._disk_ok():
            return 0
        finished = taken = 0
        slots = self.pool.free_slots
        skip: set[str] = set()
        group: list[JobRecord] = []     # the open group: holds a slot
        while (group or slots > 0) and (budget is None or taken < budget):
            record = self.queue.next_pending(skip)
            if record is None:
                break
            key = self._key_for(record)
            if key in self._inflight_keys:
                # An identical job is running (or grouped this round):
                # hold this one back and serve it from the cache when
                # the twin lands.
                skip.add(record.job_id)
                continue
            hit = self.cache.get(key)
            if hit is not None:
                taken += 1
                self.telemetry.metrics.counter("service.cache_hits").add(1)
                self.queue.mark_cached(record, hit, key)
                self._cells.pop(record.job_id, None)
                self._attempt_log.pop(record.job_id, None)
                self.telemetry.metrics.counter("service.jobs_cached").add(1)
                finished += 1
                continue
            reason = self._batch_disqualifier(record)
            if reason is not None or not group:     # it opens a group
                if slots == 0:
                    break
                slots -= 1
            taken += 1
            self.telemetry.metrics.counter("service.cache_misses").add(1)
            skip.add(record.job_id)
            self._inflight_keys[key] = record.job_id
            if reason is not None:
                self.telemetry.metrics.counter(
                    f"kernel.batch.fallback.{reason}").add(1)
                self._dispatch([record])
                continue
            group.append(record)
            if len(group) >= self.batching.max_jobs:
                self._dispatch(group)
                group = []
        if group:
            self._dispatch(group)
        return finished

    def _dispatch(self, group: list[JobRecord]) -> None:
        """Start one worker attempt running ``group`` (one or more jobs);
        ``kernel.batch.*`` counts the fused ones (two or more)."""
        now = time.time()
        for record in group:
            self.queue.mark_running(record)
            self._cells.pop(record.job_id, None)
        if len(group) > 1:
            metrics = self.telemetry.metrics
            for record in group:
                metrics.histogram("kernel.batch.coalesce_seconds").observe(
                    max(0.0, now - record.submitted_unix))
            metrics.counter("kernel.batch.dispatches").add(1)
            metrics.counter("kernel.batch.jobs").add(len(group))
            metrics.histogram("kernel.batch.size").observe(len(group))
        self.pool.dispatch(group, [self.job_workdir(record.job_id)
                                   for record in group])
        self._gauges()

    def _batch_disqualifier(self, record: JobRecord) -> str | None:
        """Why this job cannot join a coalesced group (``None`` = it can).

        The gate is conservative: a grouped job must behave exactly like
        its solo run.  Per-spec supervision envelopes can't be enforced
        per member of one process; chaos injections arm per attempt and
        must stay solo; retries resume Stage 1 from their on-disk
        checkpoint, which the fused presweep would ignore.
        """
        spec = record.spec
        if (spec.deadline_seconds is not None
                or spec.stall_seconds is not None
                or spec.max_rss_bytes is not None):
            return "envelope"
        if (spec.inject_failure_row is not None
                or spec.inject_hang_row is not None
                or spec.inject_crash_attempts):
            return "chaos"
        if record.attempts > 0:
            return "retry"
        # A pending first attempt was keyed this round or an earlier one.
        if self._cells[record.job_id] > self.batching.max_cells:
            return "large"
        return None

    def _settle(self, outcome) -> int:
        """Fold one finished attempt into queue/cache/metrics.  Returns 1
        when the job reached a terminal state, 0 when it was requeued.

        Failure taxonomy: *honest* failures (a reported exception, a
        deadline overrun, a memory-limit kill) charge the retry budget
        and end in FAILED when it runs out.  *Abnormal* endings (a crash
        without a report, a stall kill) charge the crash-loop ledger
        instead — they requeue without burning retries until the
        supervisor's ``crash_loop_threshold``, then the job is
        QUARANTINED with an on-disk diagnostics bundle.  Both kinds of
        requeue carry a backoff ``not_before``.
        """
        record = outcome.record
        metrics = self.telemetry.metrics
        self._inflight_keys.pop(record.cache_key, None)
        if outcome.batch_stats:
            # The group's fused-presweep report rides on its first
            # outcome: honest padding accounting for the batch ledger.
            metrics.histogram("kernel.batch.padding_waste").observe(
                outcome.batch_stats.get("padding_waste", 0.0))
            metrics.counter("kernel.batch.fused_lanes").add(
                outcome.batch_stats.get("lanes", 0))
        kind = ("ok" if outcome.ok else
                "timeout" if outcome.timed_out else
                "stalled" if outcome.stalled else
                "memory" if outcome.memory_exceeded else
                "crashed" if outcome.crashed else "error")
        with self.telemetry.span(
                "service.job", job_id=record.job_id, attempt=record.attempts,
                outcome=kind):
            if outcome.ok:
                summary = outcome.summary
                self.cache.put(record.cache_key, summary)
                self.queue.mark_succeeded(record, summary)
                metrics.counter("service.jobs_succeeded").add(1)
                metrics.histogram("service.job_seconds").observe(
                    summary["wall_seconds"])
                if summary.get("resumed_from_row"):
                    metrics.counter("service.resumed_jobs").add(1)
                self._attempt_log.pop(record.job_id, None)
                return 1
            self._note_attempt(record, outcome, kind)
            if outcome.timed_out:
                metrics.counter("service.timeouts").add(1)
            if outcome.stalled:
                metrics.counter("supervision.stalls").add(1)
            if outcome.memory_exceeded:
                metrics.counter("supervision.memory_kills").add(1)
            if outcome.stalled or outcome.crashed:
                metrics.counter("supervision.interrupted").add(1)
                if record.crashes + 1 >= self.supervisor.crash_loop_threshold:
                    record.crashes += 1    # this crash tips the ledger
                    # Set the terminal state before the bundle snapshot so
                    # triage reads "quarantined", not the in-flight state.
                    record.state = JobState.QUARANTINED
                    diagnostics = self._write_diagnostics(record)
                    self.queue.mark_quarantined(record, outcome.error,
                                                diagnostics=diagnostics)
                    metrics.counter("supervision.quarantined").add(1)
                    self._attempt_log.pop(record.job_id, None)
                    return 1
                self.queue.mark_interrupted(
                    record, outcome.error,
                    not_before=self._backoff_for(record))
                return 0
            if record.failures < record.spec.max_retries:
                self.queue.mark_retry(record, outcome.error,
                                      not_before=self._backoff_for(record))
                metrics.counter("service.retries").add(1)
                return 0
            self.queue.mark_failed(record, outcome.error)
            metrics.counter("service.jobs_failed").add(1)
            self._attempt_log.pop(record.job_id, None)
            return 1

    def _backoff_for(self, record: JobRecord) -> float | None:
        """The requeue hold for the failure that is about to be journaled
        (``None`` with backoff disabled)."""
        backoff = self.supervisor.backoff
        if backoff is None:
            return None
        count = record.failures + record.interruptions + 1
        delay = backoff.delay(record.job_id, count)
        self.telemetry.metrics.histogram(
            "supervision.retry_backoff_seconds").observe(delay)
        return time.time() + delay

    def _note_attempt(self, record: JobRecord, outcome, kind: str) -> None:
        """Append to the job's bounded attempt log (diagnostics fodder)."""
        log = self._attempt_log.setdefault(record.job_id, [])
        log.append({
            "attempt": record.attempts,
            "kind": kind,
            "error": outcome.error,
            "traceback": outcome.traceback,
            "last_heartbeat": (list(outcome.progress)
                               if outcome.progress else None),
            "time": time.time(),
        })
        del log[:-10]

    def _write_diagnostics(self, record: JobRecord) -> str | None:
        """Best-effort quarantine bundle (a failed write must not block
        the quarantine transition itself)."""
        workdir = self.job_workdir(record.job_id)
        row = None
        ckpt = os.path.join(workdir, "stage1.ckpt")
        if os.path.exists(ckpt):
            try:
                s0, s1 = record.spec.load_sequences()
                row = checkpoint_row(ckpt, len(s0), len(s1))
            except (StorageError, ConfigError, OSError):
                row = None
        try:
            return write_diagnostics(
                workdir, record, self._attempt_log.get(record.job_id, []),
                checkpoint_row=row)
        except OSError:
            return None

    def _key_for(self, record: JobRecord) -> str:
        """Compute (and memoize) the job's cache key.

        Loads the input pair in the service process — cheap next to the
        alignment itself, and what makes duplicates detectable *before*
        a worker is spent on them.
        """
        if record.cache_key is None:
            spec = record.spec
            s0, s1 = spec.load_sequences()
            self._cells[record.job_id] = len(s0) * len(s1)
            record.cache_key = cache_key(
                sequence_digest(s0.codes.tobytes()),
                sequence_digest(s1.codes.tobytes()),
                spec.scheme,
                config_fingerprint(spec.pipeline_config(n=len(s1))))
        return record.cache_key

    def _gauges(self) -> None:
        self.telemetry.metrics.gauge("service.queue_depth").set(
            self.queue.depth)
        self.telemetry.metrics.gauge("service.jobs_inflight").set(
            self.pool.in_flight)

    def job_workdir(self, job_id: str) -> str:
        return os.path.join(self.root, "jobs", job_id)

    # ----------------------------------------------------------- manifest
    def _summary(self, elapsed: float, finished_this_run: int
                 ) -> dict[str, Any]:
        records = self.queue.records()
        by_state = {state: sum(1 for r in records if r.state == state)
                    for state in (JobState.SUCCEEDED, JobState.CACHED,
                                  JobState.FAILED, JobState.CANCELLED,
                                  JobState.QUARANTINED, JobState.PENDING)}
        snapshot = self.telemetry.metrics.snapshot()
        return {
            "jobs": len(records),
            "finished_this_run": finished_this_run,
            "succeeded": by_state[JobState.SUCCEEDED],
            "cached": by_state[JobState.CACHED],
            "failed": by_state[JobState.FAILED],
            "cancelled": by_state[JobState.CANCELLED],
            "quarantined": by_state[JobState.QUARANTINED],
            "remaining": by_state[JobState.PENDING],
            "retries": snapshot.get("service.retries", 0),
            "timeouts": snapshot.get("service.timeouts", 0),
            "elapsed_seconds": elapsed,
            "jobs_per_second": (finished_this_run / elapsed if elapsed > 0
                                else 0.0),
            "cache": self.cache.stats(),
        }

    def write_manifest(self, summary: dict[str, Any] | None = None) -> str:
        """Write ``root/manifest.json``: job records (each pointing at its
        per-job ``manifest.json``), metrics snapshot, spans, cache stats."""
        manifest = {
            "version": MANIFEST_VERSION,
            "tool": "repro-service",
            "created_unix": time.time(),
            "root": self.root,
            "workers": self.pool.workers,
            "cpu_count": os.cpu_count(),
            "summary": json_safe(summary or {}),
            "jobs": json_safe([r.to_json() for r in self.queue.records()]),
            "metrics": json_safe(self.telemetry.metrics.snapshot()),
            "cache": json_safe(self.cache.stats()),
            "spans": json_safe([s.to_record() for s in self._memory.spans]),
        }
        return write_manifest(os.path.join(self.root, "manifest.json"),
                              manifest)
