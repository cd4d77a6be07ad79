"""Worker pool: jobs run in ``multiprocessing`` workers.

Each attempt is one child process running a group of one or more jobs
through the six-stage pipeline, each in its private workdir
(``jobs/<job_id>/`` under the service root).  Process isolation is what
makes the envelope enforceable: a deadline overrun is terminated from
outside, and a crashed attempt cannot corrupt the service.  Because the
workdir persists across attempts, a retry resumes Stage 1 from the last
on-disk checkpoint instead of re-sweeping from row 0 (the pipeline
recovers the SRA rows the dead attempt already flushed).

The child reports back over a one-shot pipe: throttled heartbeat
messages (``{"hb": True, "stage": ..., "fraction": ...}``) while it
works, one ``{"job_done": True, "job_id": ..., "ok": ...}`` report per
member the moment that member lands, then one final ``{"ok": True}`` or
``{"ok": False, "error": ..., "traceback": ...}``.  The parent
supervises from the outside on every :meth:`WorkerPool.poll`: a
heartbeat that stops *advancing* for ``stall_seconds`` gets the attempt
killed as stalled, a resident set over ``max_rss_bytes`` (read from
``/proc``) gets it killed as a memory-limit failure, and both are
independent of the wall-clock deadline.

The parent never sleeps on a fixed cadence: :meth:`WorkerPool.wait`
blocks on every running attempt's pipe, which turns readable on a
heartbeat, on the final report, and on EOF when a child dies without
reporting.  A silent hung child still meets supervision once per wait
timeout.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any

from repro.errors import ConfigError, StorageError
from repro.core.checkpoint import checkpoint_row
from repro.core.pipeline import CUDAlign
from repro.sequences.sequence import Sequence
from repro.service.job import JobRecord, JobSpec
from repro.service.supervision import rss_bytes
from repro.telemetry.manifest import sequence_digest
from repro.telemetry.observer import PipelineObserver

#: Fork keeps worker startup cheap and needs no importable __main__;
#: platforms without it (Windows) fall back to spawn.
_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")


class InjectedFailure(RuntimeError):
    """Raised by the chaos hook (``JobSpec.inject_failure_row``)."""


class FailureInjector(PipelineObserver):
    """Kills Stage 1 once its sweep passes a given row (chaos testing)."""

    def __init__(self, m: int, fail_at_row: int):
        self.m = m
        self.fail_at_row = fail_at_row

    def on_stage_progress(self, stage: str, fraction: float) -> None:
        if stage == "stage1" and fraction * self.m >= self.fail_at_row:
            raise InjectedFailure(
                f"injected failure at stage1 row >= {self.fail_at_row}")


class HangInjector(PipelineObserver):
    """Hangs Stage 1 forever once its sweep passes a given row.

    At row 0 the hang fires on stage *start*, before the attempt has
    produced a single heartbeat — the stall detector's worst case (a
    child blocked before ever writing to its result pipe).  Observers
    after this one in the chain never run once it trips, so the
    heartbeat sender goes silent exactly like a genuinely wedged worker.
    """

    def __init__(self, m: int, hang_at_row: int):
        self.m = m
        self.hang_at_row = hang_at_row

    def _hang(self) -> None:
        while True:             # killed from outside; nothing to clean up
            time.sleep(3600)

    def on_stage_start(self, stage: str) -> None:
        if stage == "stage1" and self.hang_at_row <= 0:
            self._hang()

    def on_stage_progress(self, stage: str, fraction: float) -> None:
        if stage == "stage1" and fraction * self.m >= self.hang_at_row:
            self._hang()


#: Minimum seconds between heartbeat sends (same stage); stage changes
#: always go out immediately.
HEARTBEAT_INTERVAL = 0.05


class HeartbeatSender(PipelineObserver):
    """Streams ``(stage, fraction)`` progress over the attempt's pipe.

    Throttled so a fast sweep doesn't flood the pipe, but a stage change
    always flushes — the parent's stall detector only resets its timer
    when the reported progress *advances*, so send rate does not matter
    for correctness, only for overhead.
    """

    def __init__(self, conn):
        self.conn = conn
        self._stage: str | None = None
        self._sent = 0.0

    def _send(self, stage: str, fraction: float) -> None:
        try:
            self.conn.send({"hb": True, "stage": stage,
                            "fraction": fraction})
        except (BrokenPipeError, OSError):
            pass    # parent gone; the attempt is being torn down anyway
        self._sent = time.monotonic()

    def on_stage_start(self, stage: str) -> None:
        self._stage = stage
        self._send(stage, 0.0)

    def on_stage_progress(self, stage: str, fraction: float) -> None:
        if (stage != self._stage or
                time.monotonic() - self._sent >= HEARTBEAT_INTERVAL):
            self._stage = stage
            self._send(stage, fraction)

    def on_stage_end(self, stage: str, result) -> None:
        self._send(stage, 1.0)


class _StagePrefix(PipelineObserver):
    """Prefixes stage names before an inner observer sees them.

    A group attempt runs several jobs through one heartbeat pipe; the
    prefix (``job 2/5 ``) keeps the parent's last-heartbeat diagnostics
    honest about *which* member was running, and guarantees the beat
    tuple advances across same-shaped member pipelines.
    """

    def __init__(self, inner: PipelineObserver, prefix: str):
        self.inner = inner
        self.prefix = prefix

    def on_stage_start(self, stage: str) -> None:
        self.inner.on_stage_start(self.prefix + stage)

    def on_stage_progress(self, stage: str, fraction: float) -> None:
        self.inner.on_stage_progress(self.prefix + stage, fraction)

    def on_stage_end(self, stage: str, result) -> None:
        self.inner.on_stage_end(self.prefix + stage, result)

    def on_metric(self, name: str, value) -> None:
        self.inner.on_metric(name, value)


class ObserverChain(PipelineObserver):
    """Fans each hook out to several observers, in order.

    Order matters for chaos tests: an injector placed *before* the
    heartbeat sender can hang or raise before any heartbeat escapes.
    """

    def __init__(self, observers):
        self.observers = [obs for obs in observers if obs is not None]

    def on_stage_start(self, stage: str) -> None:
        for obs in self.observers:
            obs.on_stage_start(stage)

    def on_stage_progress(self, stage: str, fraction: float) -> None:
        for obs in self.observers:
            obs.on_stage_progress(stage, fraction)

    def on_stage_end(self, stage: str, result) -> None:
        for obs in self.observers:
            obs.on_stage_end(stage, result)

    def on_metric(self, name: str, value) -> None:
        for obs in self.observers:
            obs.on_metric(name, value)


def execute_job(spec: JobSpec, workdir: str, attempt: int,
                observer: PipelineObserver | None = None,
                stage1_sweeper=None,
                sequences: tuple[Sequence, Sequence] | None = None
                ) -> dict[str, Any]:
    """Run one attempt of a job in-process; returns the result summary.

    This is the body every worker process runs, importable so tests and
    benchmarks can call it inline.  The chaos hooks only arm on the
    first attempt(s) — the retry must succeed to prove the resume path.

    ``observer`` is chained
    *after* the chaos injectors (worker children pass the heartbeat
    sender here, so an injected hang silences the heartbeat too).
    ``stage1_sweeper`` hands the pipeline a pre-built (typically already
    completed) Stage-1 sweeper — the micro-batcher's fused presweep —
    and ``sequences`` the input pair that presweep already built.
    """
    s0, s1 = sequences if sequences is not None else spec.load_sequences()
    config = spec.pipeline_config(n=len(s1))
    chain: list[PipelineObserver] = []
    if spec.inject_failure_row is not None and attempt <= 1:
        chain.append(FailureInjector(len(s0), spec.inject_failure_row))
    if spec.inject_hang_row is not None and attempt <= 1:
        chain.append(HangInjector(len(s0), spec.inject_hang_row))
    if observer is not None:
        chain.append(observer)
    observer = ObserverChain(chain) if len(chain) > 1 else (
        chain[0] if chain else None)
    resumes_from = None
    ckpt = os.path.join(workdir, "stage1.ckpt")
    if os.path.exists(ckpt):
        try:
            resumes_from = checkpoint_row(ckpt, len(s0), len(s1))
        except StorageError:
            # Corrupt or foreign checkpoint: the pipeline quarantines it
            # and sweeps fresh — the peek must not burn the retry budget.
            resumes_from = None
    pipeline = CUDAlign(config, workdir=workdir, observer=observer,
                        stage1_sweeper=stage1_sweeper,
                        manifest_extra={"job_id": spec.job_id,
                                        "attempt": attempt,
                                        "resumes_from_row": resumes_from})
    result = pipeline.run(s0, s1, visualize=False)
    alignment = result.alignment
    return {
        "job_id": spec.job_id,
        "attempt": attempt,
        "best_score": result.best_score,
        "alignment_length": result.alignment_length,
        "start": list(alignment.start) if alignment is not None else None,
        "end": list(alignment.end) if alignment is not None else None,
        "m": result.m,
        "n": result.n,
        "wall_seconds": result.wall_seconds,
        "resumed_from_row": result.stage1.resumed_from_row,
        "digest0": sequence_digest(s0.codes.tobytes()),
        "digest1": sequence_digest(s1.codes.tobytes()),
        "manifest": os.path.join(workdir, "manifest.json"),
        "workdir": workdir,
    }


def prepare_group(specs) -> tuple[dict[str, Any], dict[str, Any],
                                  dict[str, tuple[Sequence, Sequence]]]:
    """Fused Stage-1 presweep for a coalesced group (child-process side).

    Builds one Stage-1 lane per spec — with exactly the save
    rows, tracking options and scheme Stage 1 itself would request (see
    :func:`~repro.core.stage1.stage1_sweep_plan`) — and runs every lane
    to completion through length-bucketed fused dispatches.  Returns
    ``(sweepers, stats, pairs)``: ``sweepers`` maps job id to its
    finished lane and ``pairs`` to the input pair built for it, ready for
    ``execute_job(..., stage1_sweeper=..., sequences=...)``; ``stats``
    is :func:`~repro.align.batched.sweep_batched`'s honest batch report
    (lanes, buckets, padding waste).
    """
    from repro.align.batched import sweep_batched
    from repro.align.rowscan import RowSweeper
    from repro.core.stage1 import stage1_sweep_plan
    sweepers: dict[str, Any] = {}
    pairs: dict[str, tuple[Sequence, Sequence]] = {}
    for spec in specs:
        s0, s1 = pairs[spec.job_id] = spec.load_sequences()
        config = spec.pipeline_config(n=len(s1))
        _, rows = stage1_sweep_plan(len(s0), len(s1), config)
        sweepers[spec.job_id] = RowSweeper(
            s0.codes, s1.codes, config.scheme,
            local=True, track_best=True, save_rows=list(rows))
    stats = sweep_batched(list(sweepers.values()))
    return sweepers, stats, pairs


#: Signals a job child must take with the interpreter's defaults.
_CHILD_SIGNALS = {signal.SIGTERM, signal.SIGINT}


@contextlib.contextmanager
def _child_signals_held():
    """Block :data:`_CHILD_SIGNALS` in this thread while it starts a child.

    The child inherits the mask, so a signal sent to it before
    :func:`_restore_signals` stays pending instead of running the
    parent's handlers, and takes the default action once that reset
    unblocks it.  A no-op where signal masks do not exist.
    """
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, _CHILD_SIGNALS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _restore_signals() -> None:
    """Give a forked child the interpreter's default signal handling.

    ``repro serve`` forks workers from a process whose event loop owns
    SIGTERM and SIGINT through a signal wakeup fd.  A child that kept
    them would ignore the SIGTERM that cancels or kills it, and relay
    that signal into the gateway's loop as the gateway's own shutdown.
    The child starts with both blocked (:func:`_child_signals_held`);
    one that arrived before this reset is delivered as it unblocks.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _CHILD_SIGNALS)


def _attempt_main(conn, jobs: list[dict[str, Any]]) -> None:
    """Child entry: one attempt of a group of one or more jobs.

    A group of two or more first runs one fused Stage-1 presweep and
    prefixes stage names with ``job i/K``; a group of one sweeps Stage 1
    itself (checkpoint resume, pruning) under the plain names.  Each job
    reports its own ``job_done`` message the moment it lands — so if the
    process dies mid-group, only the members that had not reported share
    the crash — followed by one final report.  A member's failure never
    takes its siblings down; a failure of the attempt itself (the final
    ``ok: False`` report) is settled per unreported member by the parent.
    """
    try:
        _restore_signals()
        specs = [JobSpec.from_json(job["spec"]) for job in jobs]
        if any(job["attempt"] <= spec.inject_crash_attempts
               for spec, job in zip(specs, jobs)):
            os._exit(66)    # crash injection: no report, no cleanup
        heartbeat = HeartbeatSender(conn)
        sweepers, pairs = {}, {}
        if len(jobs) > 1:
            heartbeat.on_stage_start("batch:presweep")
            sweepers, stats, pairs = prepare_group(specs)
            heartbeat.on_stage_end("batch:presweep", None)
            try:
                conn.send({"batch_stats": stats})
            except (BrokenPipeError, OSError):
                pass
        for index, (spec, job) in enumerate(zip(specs, jobs)):
            observer = heartbeat if len(jobs) == 1 else _StagePrefix(
                heartbeat, f"job {index + 1}/{len(jobs)} ")
            try:
                summary = execute_job(
                    spec, job["workdir"], job["attempt"], observer=observer,
                    stage1_sweeper=sweepers.get(spec.job_id),
                    sequences=pairs.get(spec.job_id))
                conn.send({"job_done": True, "job_id": spec.job_id,
                           "ok": True, "summary": summary})
            except BaseException as exc:  # report it; the parent decides
                conn.send({"job_done": True, "job_id": spec.job_id,
                           "ok": False,
                           "error": f"{type(exc).__name__}: {exc}",
                           "traceback": traceback.format_exc()})
        conn.send({"ok": True})
    except BaseException as exc:
        conn.send({"ok": False,
                   "error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()})
    finally:
        conn.close()


@dataclass
class Attempt:
    """One in-flight child process running a group of one or more jobs."""

    records: list[JobRecord]
    process: Any
    conn: Any
    #: Per-member ``job_done`` reports received so far, each with the
    #: attempt's last advanced heartbeat when it landed.
    reports: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: The child's fused-presweep statistics, once reported.
    batch_stats: dict[str, Any] | None = None
    started: float = field(default_factory=time.monotonic)
    # Supervision state, maintained by WorkerPool.poll():
    progress: tuple[str, float] | None = None   # last *advanced* heartbeat
    last_beat: float = field(default_factory=time.monotonic)
    last_rss: int | None = None
    rss_checked: float = 0.0

    @property
    def spec(self) -> JobSpec:
        """The envelope's spec: grouped members carry none of their own."""
        return self.records[0].spec

    @property
    def deadline_exceeded(self) -> bool:
        deadline = self.spec.deadline_seconds
        return (deadline is not None and
                time.monotonic() - self.started > deadline)

    def stall_exceeded(self, default: float | None) -> bool:
        """Has progress stopped advancing past the stall bound?

        The per-spec bound wins; ``default`` is the pool-wide fallback;
        ``None`` for both disables stall detection for this attempt.
        The timer resets only when a heartbeat *advances* (stage change
        or larger fraction) — a child re-sending the same position is as
        stalled as a silent one.
        """
        bound = self.spec.stall_seconds
        if bound is None:
            bound = default
        return bound is not None and time.monotonic() - self.last_beat > bound

    def rss_limit(self, default: int | None) -> int | None:
        limit = self.spec.max_rss_bytes
        return default if limit is None else limit

    def note_heartbeat(self, stage: str, fraction: float) -> None:
        beat = (stage, fraction)
        if self.progress is None or beat != self.progress:
            self.progress = beat
            self.last_beat = time.monotonic()


@dataclass(frozen=True)
class Finished:
    """Outcome of one completed (or killed) attempt.

    Exactly one of the flags explains a failure: ``timed_out`` (deadline
    kill), ``stalled`` (heartbeat stopped advancing), ``memory_exceeded``
    (RSS ceiling kill) or ``crashed`` (died without reporting); a plain
    reported failure sets none of them.  ``progress`` is the attempt's
    last advanced heartbeat (diagnostics).  ``batch_stats`` rides on the
    first outcome of a fused group: the child's presweep report (lanes,
    buckets, padding waste).
    """

    record: JobRecord
    ok: bool
    summary: dict[str, Any] | None = None
    error: str | None = None
    timed_out: bool = False
    stalled: bool = False
    crashed: bool = False
    memory_exceeded: bool = False
    traceback: str | None = None
    progress: tuple[str, float] | None = None
    batch_stats: dict[str, Any] | None = None


#: Seconds between /proc RSS probes per attempt (poll-side throttle).
RSS_POLL_INTERVAL = 0.1


def wait_readable(handles: list, timeout: float) -> None:
    """Block until one of ``handles`` is readable, for at most ``timeout`` s.

    ``handles`` are what :func:`multiprocessing.connection.wait` accepts:
    attempt pipes and wakeup sockets.  A handle that another thread
    closed after the caller took its snapshot (a cancel) ends the wait
    like a readable one: the closer changed the state the caller waits
    on, and the caller's next round takes a fresh snapshot.
    """
    if not handles:
        # connection.wait returns at once on an empty list on Windows.
        time.sleep(timeout)
        return
    try:
        connection.wait(handles, timeout)
    except (OSError, ValueError):
        pass


class WorkerPool:
    """Up to ``workers`` concurrent job processes.

    ``stall_seconds`` and ``max_rss_bytes`` are pool-wide supervision
    defaults; a spec's own ``stall_seconds``/``max_rss_bytes`` override
    them per job.  ``None`` disables the respective guard.
    """

    def __init__(self, workers: int, stall_seconds: float | None = None,
                 max_rss_bytes: int | None = None):
        if workers < 1:
            raise ConfigError("workers must be positive")
        self.workers = workers
        self.stall_seconds = stall_seconds
        self.max_rss_bytes = max_rss_bytes
        self._running: list[Attempt] = []

    @property
    def free_slots(self) -> int:
        return self.workers - len(self._running)

    @property
    def in_flight(self) -> int:
        return len(self._running)

    @property
    def jobs_in_flight(self) -> int:
        """Jobs the running attempts hold: every member of each group."""
        return sum(len(attempt.records) for attempt in self._running)

    def pipes(self) -> list:
        """Every running attempt's result pipe, as a snapshot list.

        A caller that shares the pool with other threads takes this
        under its own lock and hands it to :func:`wait_readable` outside.
        """
        return [attempt.conn for attempt in self._running]

    def wait(self, timeout: float) -> None:
        """Block until some attempt has news for :meth:`poll` — a
        heartbeat, a final report, or a child's death — for at most
        ``timeout`` seconds."""
        wait_readable(self.pipes(), timeout)

    def dispatch(self, records: list[JobRecord],
                 workdirs: list[str]) -> None:
        """Start one attempt of a group of jobs in a fresh child process.

        The group occupies a single worker slot whatever its size: K
        queued small jobs cost one process dispatch, and their Stage-1
        sweeps run fused inside the child (:func:`_attempt_main`).
        Supervision (deadline, stall, RSS, liveness) covers the whole
        group; specs carrying their own envelope overrides should not be
        grouped (the service's qualification gate enforces that).
        """
        if self.free_slots <= 0:
            raise ConfigError("dispatch() with no free worker slot")
        if not records or len(records) != len(workdirs):
            raise ConfigError("dispatch() needs one workdir per record")
        jobs = []
        for record, workdir in zip(records, workdirs):
            os.makedirs(workdir, exist_ok=True)
            jobs.append({"spec": record.spec.to_json(), "workdir": workdir,
                         "attempt": record.attempts})
        parent_conn, child_conn = _CTX.Pipe(duplex=False)
        process = _CTX.Process(
            target=_attempt_main, args=(child_conn, jobs),
            name=f"repro-job-{records[0].job_id}")
        with _child_signals_held():
            process.start()
        child_conn.close()
        self._running.append(Attempt(records=list(records), process=process,
                                     conn=parent_conn))

    @staticmethod
    def _kill(attempt: Attempt) -> None:
        """Terminate with escalation: TERM, a grace join, then KILL."""
        attempt.process.terminate()
        attempt.process.join(1.0)
        if attempt.process.is_alive():
            attempt.process.kill()
            attempt.process.join()

    @staticmethod
    def _drain(attempt: Attempt) -> tuple[dict[str, Any] | None, bool]:
        """Consume pipe messages: heartbeats update the attempt's
        supervision state, per-member ``job_done`` reports and presweep
        statistics accumulate on the attempt; returns
        ``(final_message, pipe_broken)``."""
        while True:
            try:
                if not attempt.conn.poll():
                    return None, False
                message = attempt.conn.recv()
            except (EOFError, OSError):
                # The child died between poll() and recv(), or closed the
                # pipe without a final report (os._exit, SIGKILL).
                return None, True
            if message.get("hb"):
                attempt.note_heartbeat(message["stage"], message["fraction"])
                continue
            if "batch_stats" in message:
                attempt.batch_stats = message["batch_stats"]
                continue
            if message.get("job_done"):
                attempt.reports[message["job_id"]] = dict(
                    message, progress=attempt.progress)
                # A member landing is progress for the whole group.
                attempt.note_heartbeat(f"done:{message['job_id']}", 1.0)
                continue
            return message, False

    @staticmethod
    def _outcomes(attempt: Attempt, records: list[JobRecord], *,
                  error: str | None = None, traceback: str | None = None,
                  **flags) -> list[Finished]:
        """Per-member outcomes for ``records`` of an attempt that ended.

        Members that reported their own ``job_done`` settle on that
        report regardless of how the attempt ended; the rest share its
        fate — the final error report, or the kill reason in ``flags``
        (crashed / timed_out / stalled / memory_exceeded).  The
        fused-presweep statistics ride on the first outcome.
        """
        out: list[Finished] = []
        for record in records:
            stats = attempt.batch_stats if not out else None
            report = attempt.reports.get(record.job_id)
            if report is None:
                out.append(Finished(
                    record, False,
                    error=error or "attempt ended before this job ran",
                    traceback=traceback, progress=attempt.progress,
                    batch_stats=stats, **flags))
            else:
                out.append(Finished(
                    record, report["ok"], summary=report.get("summary"),
                    error=report.get("error"),
                    traceback=report.get("traceback"),
                    progress=report["progress"], batch_stats=stats))
        return out

    def poll(self) -> list[Finished]:
        """Harvest finished attempts; kill any past their supervision
        envelope (deadline, stall bound, RSS ceiling)."""
        done: list[Finished] = []
        still: list[Attempt] = []
        now = time.monotonic()
        for attempt in self._running:
            final, broken = self._drain(attempt)
            if final is not None:
                attempt.process.join()
                attempt.conn.close()
                done.extend(self._outcomes(
                    attempt, attempt.records, error=final.get("error"),
                    traceback=final.get("traceback")))
            elif broken or not attempt.process.is_alive():
                # Died without reporting (e.g. SIGKILL, OOM, os._exit).
                attempt.process.join()
                attempt.conn.close()
                done.extend(self._outcomes(
                    attempt, attempt.records, crashed=True,
                    error=f"worker died with exit code "
                          f"{attempt.process.exitcode}"))
            elif attempt.deadline_exceeded:
                self._kill(attempt)
                attempt.conn.close()
                done.extend(self._outcomes(
                    attempt, attempt.records, timed_out=True,
                    error=f"deadline of "
                          f"{attempt.spec.deadline_seconds}s exceeded"))
            elif attempt.stall_exceeded(self.stall_seconds):
                self._kill(attempt)
                attempt.conn.close()
                at = (f"{attempt.progress[0]} {attempt.progress[1]:.3f}"
                      if attempt.progress else "before first heartbeat")
                done.extend(self._outcomes(
                    attempt, attempt.records, stalled=True,
                    error=f"stalled: no progress within "
                          f"{attempt.spec.stall_seconds or self.stall_seconds}s "
                          f"(last at {at})"))
            elif self._over_rss(attempt, now):
                self._kill(attempt)
                attempt.conn.close()
                done.extend(self._outcomes(
                    attempt, attempt.records, memory_exceeded=True,
                    error=f"memory limit exceeded: rss {attempt.last_rss} "
                          f"> {attempt.rss_limit(self.max_rss_bytes)} bytes"))
            else:
                still.append(attempt)
        self._running = still
        return done

    def _over_rss(self, attempt: Attempt, now: float) -> bool:
        """Probe /proc for the attempt's RSS, throttled; ``False`` when
        the guard is off or /proc is unavailable (non-Linux)."""
        limit = attempt.rss_limit(self.max_rss_bytes)
        if limit is None or now - attempt.rss_checked < RSS_POLL_INTERVAL:
            return False
        attempt.rss_checked = now
        rss = rss_bytes(attempt.process.pid)
        if rss is not None:
            attempt.last_rss = rss
        return rss is not None and rss > limit

    def cancel(self, job_id: str) -> tuple[list[Finished], list[JobRecord]]:
        """Terminate the in-flight attempt carrying ``job_id``, if any.

        The pipe is drained first: members that already reported, the
        cancelled job included, come back as outcomes to settle.  The
        rest produce none — cancellation is the caller's state
        transition, not a failed attempt, so it never charges the retry
        budget — and the unreported *other* members come back as the
        displaced list so the caller can requeue them (they were
        collateral, not failures).  Returns ``(reported, displaced)``.
        """
        for index, attempt in enumerate(self._running):
            if all(record.job_id != job_id for record in attempt.records):
                continue
            self._drain(attempt)
            if attempt.process.is_alive():
                attempt.process.terminate()
            attempt.process.join()
            attempt.conn.close()
            del self._running[index]
            reported = [record for record in attempt.records
                        if record.job_id in attempt.reports]
            displaced = [record for record in attempt.records
                         if record.job_id not in attempt.reports
                         and record.job_id != job_id]
            return self._outcomes(attempt, reported), displaced
        return [], []

    def shutdown(self) -> None:
        """Terminate every in-flight attempt (service teardown)."""
        for attempt in self._running:
            if attempt.process.is_alive():
                attempt.process.terminate()
            attempt.process.join()
            attempt.conn.close()
        self._running = []
