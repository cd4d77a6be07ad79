"""A stateful model of the service's job lifecycle.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a real
:class:`AlignmentService` — its real queue, journal, cache, supervision
and :class:`WorkerPool` — whose children are fakes: ``worker._CTX``
hands the pool a stub ``Process``, and the machine writes each child's
messages into the real result pipe the pool reads.  The pool's own
drain, outcome, cancel and supervision code therefore runs unchanged,
without a fork.

Rules: submit catalog jobs (duplicates and cache hits included; some
carry an envelope or chaos field and so run alone), step the service,
heartbeat, report a member done (ok or error), crash a child (close its
pipe), stall one (``last_beat`` in the past), blow one's memory bound,
cancel a job, pause and resume dispatch on disk space, and kill the
service and replay its journal.  The invariants are checked after every
rule; the named tests at the bottom are failures the machine found,
minimized.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
import types
from multiprocessing import connection
from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.service import (AlignmentService, BatchConfig, JobSpec, JobState,
                           RetryBackoff, SupervisorConfig, worker)

#: Catalog entries that are 384 x 384 at scale 8192: small enough to
#: coalesce, distinct enough that only equal (entry, seed) pairs share a
#: cache key.
ENTRIES = ("162Kx172K", "543Kx536K")
#: Extra spec fields per job kind; an envelope or a chaos hook makes a
#: job run alone.  Neither fires: the children are fakes, and the bounds
#: are far beyond any run.
KINDS = {"plain": {}, "envelope": {"deadline_seconds": 3600.0},
         "chaos": {"inject_failure_row": 10 ** 9}}
STALL_SECONDS = 60.0
RSS_LIMIT = 1 << 30
LOW_WATER = 1 << 20

_PIDS = itertools.count(1 << 30)


class FakeChild:
    """A worker child the state machine speaks for.

    Built by the pool in place of a ``multiprocessing.Process``.  The
    pool closes its copy of the pipe's child end once ``start()``
    returns, so the fake keeps a duplicate of it: closing that duplicate
    is the child's death as the pool sees it (EOF on the result pipe).
    """

    def __init__(self, machine: "LifecycleMachine", args):
        conn, jobs = args
        self.jobs = [job["spec"]["job_id"] for job in jobs]
        self.reported = 0
        self.fraction = 0.0
        self.pid = next(_PIDS)
        self.exitcode: int | None = None
        self._machine = machine
        self._pipe = connection.Connection(os.dup(conn.fileno()),
                                           readable=False)

    def start(self) -> None:
        self._machine.children.append(self)

    def is_alive(self) -> bool:
        return self.exitcode is None

    def join(self, timeout: float | None = None) -> None:
        pass

    def terminate(self) -> None:
        self.exit(-signal.SIGTERM)

    def kill(self) -> None:
        self.exit(-signal.SIGKILL)

    def exit(self, code: int) -> None:
        if self.exitcode is None:
            self.exitcode = code
            self._pipe.close()

    def send(self, message: dict) -> None:
        self._pipe.send(message)

    def report_next(self, ok: bool) -> str:
        """The next member's ``job_done`` (members run in order); the
        last one is followed by the final report and the child's exit."""
        job_id = self.jobs[self.reported]
        self.reported += 1
        if ok:
            self.send({"job_done": True, "job_id": job_id, "ok": True,
                       "summary": {"job_id": job_id, "best_score": 7,
                                   "alignment_length": 7,
                                   "wall_seconds": 0.01,
                                   "resumed_from_row": None}})
        else:
            self.send({"job_done": True, "job_id": job_id, "ok": False,
                       "error": "ValueError: injected", "traceback": ""})
        if self.reported == len(self.jobs):
            self.send({"ok": True})
            self.exit(0)
        return job_id


def _ledger(record) -> tuple:
    return (record.state, record.attempts, record.failures,
            record.interruptions, record.crashes, record.not_before)


class LifecycleMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-lifecycle-")
        self.children: list[FakeChild] = []
        self.rss: dict[int, int] = {}
        self.free_bytes = 4 * LOW_WATER
        self.service: AlignmentService | None = None
        self.submitted = 0
        #: job id -> its attempt count when it reported success.
        self.reported_ok: dict[str, int] = {}
        #: job id -> the last ledger the invariants saw.
        self.seen: dict[str, tuple] = {}
        context = types.SimpleNamespace(
            Pipe=multiprocessing.Pipe,
            Process=lambda target, args, name: FakeChild(self, args))
        self._patches = [mock.patch.object(worker, "_CTX", context),
                         mock.patch.object(worker, "rss_bytes", self.rss.get),
                         mock.patch.object(worker, "RSS_POLL_INTERVAL", 0.0)]
        for patch in self._patches:
            patch.start()

    def teardown(self):
        try:
            if self.service is not None:
                self.service.close()
        finally:
            for patch in self._patches:
                patch.stop()
            shutil.rmtree(self.root, ignore_errors=True)

    # ------------------------------------------------------------ helpers
    def _open(self, resume: bool = False) -> AlignmentService:
        return AlignmentService(self.root, resume=resume, **self.config)

    def _live(self) -> list[FakeChild]:
        return [child for child in self.children if child.is_alive()]

    def _held(self) -> set[str]:
        """Ids of the jobs the pool's running attempts hold."""
        return {record.job_id for attempt in self.service.pool._running
                for record in attempt.records}

    def _live_attempts(self) -> list:
        return [attempt for attempt in self.service.pool._running
                if attempt.process.is_alive()]

    def _check_fifo(self, opener_id: str) -> None:
        """No later job of a priority opens a worker slot while an
        earlier eligible one of that priority stays pending.  Eligible:
        pending with no identical job in flight (backoff is zero here)."""
        queue = self.service.queue
        opener = queue.get(opener_id)
        for record in queue.records():
            if record.job_id == opener_id:
                return
            if (record.state == JobState.PENDING
                    and record.spec.priority == opener.spec.priority):
                assert record.cache_key in self.service._inflight_keys, (
                    f"{opener_id} opened a worker slot while the earlier "
                    f"{record.job_id} stayed pending")

    # -------------------------------------------------------------- rules
    @initialize(workers=st.sampled_from([1, 2]),
                max_jobs=st.sampled_from([1, 3]))
    def open_service(self, workers, max_jobs):
        self.config = dict(
            workers=workers,
            supervisor=SupervisorConfig(
                stall_seconds=STALL_SECONDS, max_rss_bytes=RSS_LIMIT,
                crash_loop_threshold=2,
                backoff=RetryBackoff(base_seconds=0.0, jitter=0.0),
                disk_low_water_bytes=LOW_WATER,
                disk_probe=lambda: self.free_bytes),
            batching=BatchConfig(max_jobs=max_jobs))
        self.service = self._open()

    @rule(entry=st.sampled_from(ENTRIES), seed=st.integers(0, 1),
          priority=st.integers(0, 1), kind=st.sampled_from(sorted(KINDS)))
    def submit(self, entry, seed, priority, kind):
        self.submitted += 1
        self.service.submit(JobSpec(
            job_id=f"j{self.submitted}", catalog=entry, scale=8192,
            seed=seed, priority=priority, **KINDS[kind]))

    @rule()
    def step(self):
        started = len(self.children)
        self.service.step()
        for child in self.children[started:]:
            self._check_fifo(child.jobs[0])

    @precondition(lambda self: self._live())
    @rule(pick=st.integers(0, 15))
    def heartbeat(self, pick):
        live = self._live()
        child = live[pick % len(live)]
        child.fraction = min(1.0, child.fraction + 0.125)
        child.send({"hb": True, "stage": "stage1",
                    "fraction": child.fraction})

    @precondition(lambda self: self._live())
    @rule(pick=st.integers(0, 15), ok=st.booleans())
    def member_done(self, pick, ok):
        live = self._live()
        child = live[pick % len(live)]
        attempts = self.service.queue.get(child.jobs[child.reported]).attempts
        job_id = child.report_next(ok)
        if ok:
            self.reported_ok[job_id] = attempts

    @precondition(lambda self: self._live())
    @rule(pick=st.integers(0, 15))
    def crash(self, pick):
        live = self._live()
        live[pick % len(live)].exit(66)

    @precondition(lambda self: self._live_attempts())
    @rule(pick=st.integers(0, 15))
    def stall(self, pick):
        attempts = self._live_attempts()
        attempts[pick % len(attempts)].last_beat = (
            time.monotonic() - 2 * STALL_SECONDS)

    @precondition(lambda self: self._live_attempts())
    @rule(pick=st.integers(0, 15))
    def memory(self, pick):
        attempts = self._live_attempts()
        self.rss[attempts[pick % len(attempts)].process.pid] = 2 * RSS_LIMIT

    @precondition(lambda self: self.submitted)
    @rule(pick=st.integers(0, 63))
    def cancel(self, pick):
        record = self.service.queue.get(f"j{pick % self.submitted + 1}")
        was_done = record.done
        cancelled = self.service.cancel(record.job_id)
        # False for a job that was terminal, or that settled on its own
        # report as the cancel drained its pipe.
        assert record.done
        assert cancelled == (not was_done
                             and record.state == JobState.CANCELLED)

    @rule(low=st.booleans())
    def disk(self, low):
        self.free_bytes = LOW_WATER // 2 if low else 4 * LOW_WATER

    @rule()
    def kill_and_replay(self):
        expected = {}
        for record in self.service.queue.records():
            ledger = _ledger(record)
            if record.state == JobState.RUNNING:
                ledger = (JobState.PENDING,) + ledger[1:]
            expected[record.job_id] = ledger
        # Die without a goodbye: the children go, the journal stays.
        self.service.pool.shutdown()
        self.service.telemetry.close()
        self.service = self._open(resume=True)
        replayed = {record.job_id: _ledger(record)
                    for record in self.service.queue.records()}
        assert replayed == expected
        # A report the dead service never read is lost with it.
        self.reported_ok = {
            job_id: attempts for job_id, attempts in self.reported_ok.items()
            if self.service.queue.get(job_id).state == JobState.SUCCEEDED}

    # --------------------------------------------------------- invariants
    @invariant()
    def ledgers_only_grow(self):
        for record in self.service.queue.records():
            now = _ledger(record)
            before = self.seen.get(record.job_id)
            if before is not None:
                assert all(a >= b for a, b in zip(now[1:5], before[1:5])), (
                    record.job_id, before, now)
                if before[0] in JobState.TERMINAL:
                    # Terminal is final: never pending or running again.
                    assert now[:5] == before[:5], (record.job_id, before,
                                                   now)
            self.seen[record.job_id] = now

    @invariant()
    def running_jobs_are_the_pools(self):
        running = {record.job_id for record in self.service.queue.records()
                   if record.state == JobState.RUNNING}
        assert self.service.pool.jobs_in_flight == len(running)
        assert self._held() == running

    @invariant()
    def reported_success_settles(self):
        held = self._held()
        for job_id, attempts in self.reported_ok.items():
            record = self.service.queue.get(job_id)
            assert record.attempts == attempts, (job_id, record.attempts)
            assert (record.state == JobState.SUCCEEDED
                    or (record.state == JobState.RUNNING and job_id in held)
                    ), (job_id, record.state)

    @invariant()
    def memos_hold_only_live_jobs(self):
        records = self.service.queue.records()
        pending = {r.job_id for r in records if r.state == JobState.PENDING}
        unfinished = {r.job_id for r in records if not r.done}
        assert set(self.service._cells) <= pending
        assert set(self.service._attempt_log) <= unfinished


LifecycleMachine.TestCase.settings = settings(
    max_examples=1000, stateful_step_count=40, derandomize=True,
    deadline=None, suppress_health_check=[HealthCheck.too_slow])
TestLifecycle = LifecycleMachine.TestCase


# ------------------------------------------------ minimized failures
@contextlib.contextmanager
def machine(workers: int, max_jobs: int):
    state = LifecycleMachine()
    try:
        state.open_service(workers=workers, max_jobs=max_jobs)
        yield state
    finally:
        state.teardown()


def test_held_small_job_keeps_its_slot():
    """A job that opens a group takes its worker slot at once: a newer
    job that must run alone no longer overtakes the older small one."""
    with machine(workers=1, max_jobs=3) as state:
        state.submit(entry="162Kx172K", kind="plain", priority=0, seed=0)
        state.submit(entry="162Kx172K", kind="chaos", priority=0, seed=1)
        state.step()
        queue = state.service.queue
        assert queue.get("j1").state == JobState.RUNNING
        assert queue.get("j2").state == JobState.PENDING
    with machine(workers=1, max_jobs=16) as state:
        service = state.service
        service.submit(JobSpec(job_id="small", catalog="162Kx172K"))
        service.submit(JobSpec(job_id="large", catalog="543Kx536K",
                               scale=512))      # 1060 x 1047: runs alone
        service.step()
        assert service.queue.get("small").state == JobState.RUNNING
        assert service.queue.get("large").state == JobState.PENDING


def test_unread_success_report_survives_cancel():
    """A solo job whose success report sits unread in its pipe settles
    on that report: the cancel finds it already terminal."""
    with machine(workers=1, max_jobs=1) as state:
        state.submit(entry="162Kx172K", kind="chaos", priority=0, seed=0)
        state.step()
        state.member_done(ok=True, pick=0)
        assert state.service.cancel("j1") is False
        record = state.service.queue.get("j1")
        assert (record.state, record.attempts) == (JobState.SUCCEEDED, 1)


def test_cancel_settles_siblings_with_reports():
    """Cancelling one member of a three-job group: the member that
    already reported success keeps it (one attempt), the unreported one
    is displaced without a ledger charge, and runs again."""
    with machine(workers=1, max_jobs=3) as state:
        state.submit(entry="162Kx172K", kind="plain", priority=0, seed=0)
        state.submit(entry="543Kx536K", kind="plain", priority=0, seed=0)
        state.submit(entry="162Kx172K", kind="plain", priority=0, seed=1)
        state.step()
        assert [child.jobs for child in state.children] == [
            ["j1", "j2", "j3"]]
        state.member_done(ok=True, pick=0)
        service = state.service
        assert service.cancel("j3") is True
        j1, j2, j3 = (service.queue.get(f"j{i}") for i in (1, 2, 3))
        assert (j1.state, j1.attempts) == (JobState.SUCCEEDED, 1)
        assert (j2.state, j2.interruptions, j2.crashes) == (
            JobState.PENDING, 1, 0)
        assert j3.state == JobState.CANCELLED
        assert service.telemetry.metrics.snapshot()[
            "kernel.batch.displaced"] == 1
        state.step()
        assert (j2.state, j2.attempts) == (JobState.RUNNING, 2)


def test_replay_clears_a_served_backoff():
    """A requeued job's ``not_before`` is spent once it starts again, in
    the replayed journal as in the live queue."""
    with machine(workers=1, max_jobs=1) as state:
        state.submit(entry="162Kx172K", kind="chaos", priority=0, seed=0)
        state.step()
        state.crash(pick=0)
        state.step()        # interrupted with a backoff, then restarted
        assert state.service.queue.get("j1").attempts == 2
        state.kill_and_replay()
        assert state.service.queue.get("j1").not_before is None


def test_dispatch_releases_the_cells_memo():
    with machine(workers=1, max_jobs=1) as state:
        state.submit(entry="162Kx172K", kind="chaos", priority=0, seed=0)
        state.step()
        assert state.service._cells == {}
