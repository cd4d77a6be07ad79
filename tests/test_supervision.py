"""Tests for the supervised runtime (repro.service.supervision et al.):

heartbeat stall detection, poison-job quarantine, retry backoff with a
journaled ``not_before``, disk/RSS resource guards, pump self-health and
the gateway's component-level ``/healthz`` — ending in the chaos
acceptance scenario (hang + crash-loop + healthy jobs through the
gateway, plus the abandoned-journal replay).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.errors import ConfigError
from repro.gateway import GatewayPolicy, GatewayRunner, ServiceDispatcher
from repro.service import (
    AlignmentService,
    DiskGuard,
    JOURNAL_NAME,
    JobQueue,
    JobSpec,
    JobState,
    RetryBackoff,
    SupervisorConfig,
    execute_job,
    read_diagnostics,
    replay_journal,
    rss_bytes,
)

from tests.test_gateway import TINY, Client, await_terminal, wait_terminal

#: Fast supervision defaults for tests: sub-second stall bound, tiny
#: backoff so retries don't slow suites down, quarantine on the 2nd crash.
FAST = dict(stall_seconds=0.75, crash_loop_threshold=2,
            backoff=RetryBackoff(base_seconds=0.01))


def tiny_spec(job_id: str, seed: int = 0, **extra) -> JobSpec:
    return JobSpec(job_id=job_id, seed=seed, **TINY, **extra)


def journal_of(service: AlignmentService) -> str:
    return os.path.join(service.root, JOURNAL_NAME)


# ----------------------------------------------------------- RetryBackoff
class TestRetryBackoff:
    def test_deterministic_per_job_and_count(self):
        backoff = RetryBackoff(seed=42)
        assert [backoff.delay("a", n) for n in (1, 2, 3)] \
            == [backoff.delay("a", n) for n in (1, 2, 3)]
        # Different jobs jitter differently (decorrelated retries).
        assert backoff.delay("a", 1) != backoff.delay("b", 1)

    def test_exponential_growth_within_jitter_bounds(self):
        backoff = RetryBackoff(base_seconds=0.1, factor=2.0,
                               cap_seconds=60.0, jitter=0.25)
        for n in range(1, 8):
            raw = min(60.0, 0.1 * 2.0 ** (n - 1))
            delay = backoff.delay("job", n)
            assert raw * 0.75 <= delay <= raw * 1.25

    def test_cap(self):
        backoff = RetryBackoff(base_seconds=1.0, factor=10.0,
                               cap_seconds=5.0, jitter=0.0)
        assert backoff.delay("j", 50) == 5.0

    def test_zero_count_is_immediate(self):
        assert RetryBackoff().delay("j", 0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryBackoff(base_seconds=-1)
        with pytest.raises(ConfigError):
            RetryBackoff(factor=0.5)
        with pytest.raises(ConfigError):
            RetryBackoff(jitter=1.0)


# --------------------------------------------------------------- DiskGuard
class TestDiskGuard:
    def test_hysteresis(self):
        free = iter([100, 10, 100, 200, 150])
        guard = DiskGuard("/tmp", low_water_bytes=64, high_water_bytes=128,
                          probe=lambda: next(free))
        # 100 free: above low water, runs.  10: trips.  100: still below
        # high water, stays tripped.  200: recovers.  150: stays up.
        assert [guard.poll() for _ in range(5)] \
            == [False, True, True, False, False]

    def test_default_probe_reads_real_filesystem(self, tmp_path):
        guard = DiskGuard(tmp_path, low_water_bytes=1)
        assert guard.poll() is False
        assert guard.free_bytes > 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            DiskGuard("/tmp", low_water_bytes=0)
        with pytest.raises(ConfigError):
            DiskGuard("/tmp", low_water_bytes=100, high_water_bytes=50)


# --------------------------------------------------------------- rss_bytes
class TestRssBytes:
    def test_unknown_pid_is_none(self):
        assert rss_bytes(2 ** 22 + 12345) is None

    @pytest.mark.skipif(rss_bytes(os.getpid()) is None,
                        reason="/proc not available on this platform")
    def test_own_process_positive(self):
        assert rss_bytes(os.getpid()) > 1024 * 1024   # >1 MiB resident


# ------------------------------------------------- queue: backoff + replay
class TestQueueBackoff:
    def test_mark_retry_not_before_holds_job_back(self, tmp_path):
        queue = JobQueue(tmp_path / JOURNAL_NAME)
        a = queue.submit(tiny_spec("a"))
        b = queue.submit(tiny_spec("b", seed=1))
        queue.mark_running(a)
        queue.mark_retry(a, "boom", not_before=time.time() + 60)
        # a is pending but backed off: b dispatches first.
        assert queue.next_pending().job_id == "b"
        # Once the clock passes not_before, a wins its original slot back.
        assert queue.next_pending(now=time.time() + 61).job_id == "a"
        assert queue.next_not_before() == a.not_before

    def test_mark_running_clears_not_before(self, tmp_path):
        queue = JobQueue(tmp_path / JOURNAL_NAME)
        a = queue.submit(tiny_spec("a"))
        queue.mark_running(a)
        queue.mark_retry(a, "boom", not_before=time.time() - 1)
        queue.mark_running(a)
        assert a.not_before is None

    def test_not_before_survives_replay(self, tmp_path):
        journal = tmp_path / JOURNAL_NAME
        queue = JobQueue(journal)
        a = queue.submit(tiny_spec("a"))
        hold = time.time() + 3600
        queue.mark_running(a)
        queue.mark_retry(a, "boom", not_before=hold)
        records, events, corrupt = replay_journal(journal)
        assert corrupt == 0
        assert records[0].not_before == pytest.approx(hold)
        recovered = JobQueue.recover(journal)
        assert recovered.next_pending() is None            # still held
        assert recovered.next_pending(now=hold + 1).job_id == "a"

    def test_hot_requeue_regression_mixed_retry_cancel_replay(self, tmp_path):
        """Satellite: a replay of mixed retry/cancel events must keep
        FIFO-within-priority — the retried job resumes its *original*
        submission slot, cancelled jobs drop out cleanly."""
        journal = tmp_path / JOURNAL_NAME
        queue = JobQueue(journal)
        a = queue.submit(tiny_spec("a"))
        b = queue.submit(tiny_spec("b", seed=1))
        c = queue.submit(tiny_spec("c", seed=2))
        queue.mark_running(a)
        queue.mark_retry(a, "boom")                  # no backoff: hot path
        queue.mark_cancelled(b, "user said so")
        # Live queue: a (original slot) before c, b gone.
        assert queue.next_pending().job_id == "a"
        recovered = JobQueue.recover(journal)
        assert recovered.get("b").state == JobState.CANCELLED
        first = recovered.next_pending()
        assert first.job_id == "a"
        recovered.mark_running(first)
        assert recovered.next_pending().job_id == "c"

    def test_interrupted_does_not_charge_retry_budget(self, tmp_path):
        journal = tmp_path / JOURNAL_NAME
        queue = JobQueue(journal)
        a = queue.submit(tiny_spec("a", max_retries=0))
        queue.mark_running(a)
        queue.mark_interrupted(a, "stall killed")
        assert a.state == JobState.PENDING
        assert a.failures == 0
        assert a.crashes == 1 and a.interruptions == 1
        records, _, _ = replay_journal(journal)
        assert records[0].failures == 0
        assert records[0].crashes == 1

    def test_quarantine_is_terminal_and_replays(self, tmp_path):
        journal = tmp_path / JOURNAL_NAME
        queue = JobQueue(journal)
        a = queue.submit(tiny_spec("a"))
        queue.mark_running(a)
        a.crashes = 3
        queue.mark_quarantined(a, "crash loop", diagnostics="/d.json")
        assert a.done
        with pytest.raises(ConfigError):
            queue.mark_cancelled(a)
        recovered = JobQueue.recover(journal)
        replayed = recovered.get("a")
        assert replayed.state == JobState.QUARANTINED
        assert replayed.crashes == 3
        assert replayed.diagnostics == "/d.json"
        assert recovered.next_pending() is None


# ------------------------------------------------------ stall detection
class TestStallDetection:
    def test_hang_before_first_heartbeat_is_killed_and_retried(self, tmp_path):
        """Satellite: a child blocked before ever writing to its result
        pipe, with NO deadline — only the stall detector can reap it."""
        service = AlignmentService(tmp_path / "svc", workers=1,
                                   supervisor=SupervisorConfig(**FAST))
        spec = tiny_spec("wedge", inject_hang_row=0)
        assert spec.deadline_seconds is None
        service.submit(spec)
        tick = time.monotonic()
        service.run()
        elapsed = time.monotonic() - tick
        service.close()
        record = service.queue.get("wedge")
        assert record.state == JobState.SUCCEEDED
        assert record.attempts == 2
        assert record.failures == 0          # stall charged no retry budget
        assert record.crashes == 1
        # Killed within the stall bound (plus scheduling slack), not hours.
        assert elapsed < 0.75 + 10.0
        snapshot = service.telemetry.metrics.snapshot()
        assert snapshot["supervision.stalls"] == 1
        assert snapshot["supervision.interrupted"] == 1

    def test_stall_kill_resumes_from_checkpoint_bit_identical(self, tmp_path):
        """The killed attempt's checkpoint feeds the retry, and the final
        result is bit-identical to an uninjected direct run."""
        service = AlignmentService(tmp_path / "svc", workers=1,
                                   supervisor=SupervisorConfig(**FAST))
        service.submit(tiny_spec("late-hang", inject_hang_row=200,
                                 checkpoint_every_rows=64))
        service.run()
        service.close()
        record = service.queue.get("late-hang")
        assert record.state == JobState.SUCCEEDED
        assert record.result["resumed_from_row"] >= 64
        clean = execute_job(tiny_spec("clean", checkpoint_every_rows=64),
                            str(tmp_path / "clean"), attempt=1)
        for key in ("best_score", "alignment_length", "start", "end"):
            assert record.result[key] == clean[key], key

    def test_silent_hang_reaped_by_an_event_driven_pump(self, tmp_path):
        """The gateway pump wakes on pipe traffic, and a child hung
        before its first heartbeat sends none: the pump's bounded wait
        must still time out into supervision, which kills and retries
        the attempt."""
        dispatcher = ServiceDispatcher(str(tmp_path / "svc"),
                                       poll_seconds=0.05,
                                       supervisor=SupervisorConfig(**FAST))
        dispatcher.start()
        try:
            tick = time.monotonic()
            dispatcher.submit(tiny_spec("wedge", inject_hang_row=0),
                              tenant="t")
            snapshot = await_terminal(dispatcher, "wedge", timeout=60)
            elapsed = time.monotonic() - tick
            snapshot_metrics = dispatcher.metrics()
        finally:
            dispatcher.close()
        assert snapshot["state"] == JobState.SUCCEEDED
        assert snapshot["attempts"] == 2
        assert snapshot["crashes"] == 1
        assert snapshot_metrics["supervision.stalls"] == 1
        assert elapsed < 0.75 + 10.0
        assert dispatcher.pump_error is None

    def test_healthy_jobs_unaffected_by_stall_bound(self, tmp_path):
        service = AlignmentService(tmp_path / "svc", workers=2,
                                   supervisor=SupervisorConfig(**FAST))
        service.submit_many([tiny_spec(f"ok-{i}", seed=i) for i in range(3)])
        service.run()
        service.close()
        states = {r.job_id: r.state for r in service.queue.records()}
        assert set(states.values()) == {JobState.SUCCEEDED}
        assert "supervision.stalls" not in \
            service.telemetry.metrics.snapshot()


# -------------------------------------------------------------- RSS guard
@pytest.mark.skipif(rss_bytes(os.getpid()) is None,
                    reason="/proc not available on this platform")
class TestRssGuard:
    def test_over_budget_attempt_fails_as_memory_limit(self, tmp_path):
        service = AlignmentService(tmp_path / "svc", workers=1,
                                   supervisor=SupervisorConfig(**FAST))
        # 1 MiB ceiling: any Python child exceeds it instantly.
        service.submit(tiny_spec("hog", max_rss_bytes=1 << 20,
                                 max_retries=0))
        service.run()
        service.close()
        record = service.queue.get("hog")
        assert record.state == JobState.FAILED
        assert "memory limit exceeded" in record.error
        assert record.failures == 1          # honest failure, not a crash
        assert record.crashes == 0
        snapshot = service.telemetry.metrics.snapshot()
        assert snapshot["supervision.memory_kills"] == 1


# ------------------------------------------------------------- quarantine
class TestQuarantine:
    def run_crash_loop(self, root, threshold=2):
        service = AlignmentService(
            root, workers=1,
            supervisor=SupervisorConfig(
                stall_seconds=0.75, crash_loop_threshold=threshold,
                backoff=RetryBackoff(base_seconds=0.01)))
        # Crashes on every attempt; max_retries is irrelevant because
        # crashes charge the quarantine ledger, not the retry budget.
        service.submit(tiny_spec("poison", inject_crash_attempts=99,
                                 max_retries=5))
        service.submit(tiny_spec("fine", seed=3))
        service.run()
        service.close()
        return service

    def test_crash_loop_quarantines_with_diagnostics(self, tmp_path):
        service = self.run_crash_loop(tmp_path / "svc")
        poison = service.queue.get("poison")
        assert poison.state == JobState.QUARANTINED
        assert poison.crashes == 2
        assert poison.failures == 0
        assert service.queue.get("fine").state == JobState.SUCCEEDED
        bundle = read_diagnostics(service.job_workdir("poison"))
        assert bundle["state"] == JobState.QUARANTINED
        assert bundle["job_id"] == "poison"
        assert bundle["crashes"] == 2
        assert bundle["spec"]["inject_crash_attempts"] == 99
        assert len(bundle["attempt_log"]) == 2
        assert all("worker died" in entry["error"]
                   for entry in bundle["attempt_log"])
        assert poison.diagnostics == os.path.join(
            service.job_workdir("poison"), "diagnostics.json")
        snapshot = service.telemetry.metrics.snapshot()
        assert snapshot["supervision.quarantined"] == 1

    def test_cli_jobs_diagnose_renders_bundle(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "svc"
        self.run_crash_loop(root)
        assert main(["jobs", "diagnose", "poison",
                     "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "poison: quarantined" in out
        assert "crashes: 2" in out
        assert "worker died" in out
        # Unknown/never-quarantined job: clean error, not a traceback.
        assert main(["jobs", "diagnose", "fine", "--root", str(root)]) == 1
        assert "no diagnostics bundle" in capsys.readouterr().err

    def test_cli_jobs_table_lists_quarantined(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "svc"
        self.run_crash_loop(root)
        assert main(["jobs", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out

    def test_abandoned_journal_replays_to_same_terminal_states(
            self, tmp_path):
        """Kill-mid-chaos equivalence: drive a crash-looper partway (one
        interruption journaled, with its backoff), abandon the service
        without letting it finish, then recover the journal in a fresh
        service — the replay must restore counters and ``not_before``,
        and resuming must land on the same terminal states."""
        root = tmp_path / "svc"
        supervisor = SupervisorConfig(
            crash_loop_threshold=2, backoff=RetryBackoff(base_seconds=0.2))
        service = AlignmentService(root, workers=1, supervisor=supervisor)
        service.submit(tiny_spec("poison", inject_crash_attempts=99))
        service.submit(tiny_spec("fine", seed=4))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            service.step()
            if service.queue.get("poison").interruptions >= 1:
                break
            time.sleep(0.01)
        record = service.queue.get("poison")
        assert record.interruptions >= 1
        # Abandon: kill the attempts, leave the journal where it lies.
        service.pool.shutdown()
        service.telemetry.close()

        records, _, corrupt = replay_journal(os.path.join(root, JOURNAL_NAME))
        assert corrupt == 0
        replayed = {r.job_id: r for r in records}
        assert replayed["poison"].crashes == record.crashes
        if replayed["poison"].state == JobState.PENDING:
            assert replayed["poison"].not_before is not None

        resumed = AlignmentService(root, workers=1, resume=True,
                                   supervisor=supervisor)
        resumed.run()
        resumed.close()
        assert resumed.queue.get("poison").state == JobState.QUARANTINED
        assert resumed.queue.get("fine").state in (JobState.SUCCEEDED,
                                                   JobState.CACHED)
        bundle = read_diagnostics(resumed.job_workdir("poison"))
        assert bundle["state"] == JobState.QUARANTINED


# -------------------------------------------------------------- disk guard
class TestDiskGuardService:
    def test_pause_evict_resume(self, tmp_path):
        free = {"bytes": 10 * 1024 * 1024}
        supervisor = SupervisorConfig(
            backoff=RetryBackoff(base_seconds=0.01),
            disk_low_water_bytes=1024 * 1024,
            disk_high_water_bytes=2 * 1024 * 1024,
            disk_probe=lambda: free["bytes"])
        service = AlignmentService(tmp_path / "svc", workers=1,
                                   supervisor=supervisor)
        # Prime the cache with one finished job.
        service.submit(tiny_spec("warm"))
        service.run()
        assert len(service.cache) == 1
        # Trip the guard: dispatch pauses, the cache is evicted.
        free["bytes"] = 512 * 1024
        service.submit(tiny_spec("held", seed=9))
        for _ in range(3):
            service.step()
        assert service.disk_paused
        assert service.queue.get("held").state == JobState.PENDING
        assert len(service.cache) == 0
        snapshot = service.telemetry.metrics.snapshot()
        assert snapshot["supervision.disk_paused"] == 1
        assert snapshot["supervision.disk_pauses"] == 1
        assert snapshot["supervision.cache_evicted"] == 1
        # Recover past high water: dispatch resumes and the job lands.
        free["bytes"] = 10 * 1024 * 1024
        service.run()
        service.close()
        assert not service.disk_paused
        assert service.queue.get("held").state == JobState.SUCCEEDED
        assert service.telemetry.metrics.snapshot()[
            "supervision.disk_paused"] == 0


# -------------------------------------------------- pump self-health
class TestPumpSelfHealth:
    def wait_pump_dead(self, dispatcher, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not dispatcher._thread.is_alive():
                return
            time.sleep(0.01)
        raise AssertionError("pump thread did not die")

    def test_crash_once_restarts_and_degrades(self, tmp_path):
        dispatcher = ServiceDispatcher(str(tmp_path / "svc"),
                                       poll_seconds=0.01)
        original = dispatcher.service.step
        crashes = {"left": 1}

        def flaky_step():
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("injected pump crash")
            return original()

        dispatcher.service.step = flaky_step
        try:
            dispatcher.start()
            self.wait_pump_dead(dispatcher)
            health = dispatcher.health()
            # One-shot restart happened inside health(); the gateway is
            # degraded but alive, and the pump works again.
            assert health["status"] == "degraded"
            assert health["components"]["pump"] == "degraded"
            assert "injected pump crash" in health["pump_error"]
            assert dispatcher._thread.is_alive()
            assert dispatcher.metrics()["supervision.pump_restarts"] == 1
            # The restarted pump still drives jobs to completion.
            dispatcher.submit(tiny_spec("after-restart"), tenant="t")
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snapshot = dispatcher.snapshot("after-restart")
                if snapshot["state"] in JobState.TERMINAL:
                    break
                time.sleep(0.05)
            assert snapshot["state"] == JobState.SUCCEEDED
        finally:
            dispatcher.close()

    def test_config_error_in_a_round_is_a_crash(self, tmp_path):
        """A ConfigError out of a pump round is not swallowed: the pump
        dies loudly, ``pump_error`` names it, and the health check's
        restart takes over."""
        dispatcher = ServiceDispatcher(str(tmp_path / "svc"),
                                       poll_seconds=0.01)

        def bad_round():
            raise ConfigError("dispatch() with no free worker slot")

        dispatcher.service.step = bad_round
        try:
            dispatcher.start()
            self.wait_pump_dead(dispatcher)
            assert dispatcher.pump_error == \
                "ConfigError: dispatch() with no free worker slot"
            assert dispatcher.health()["status"] == "degraded"
        finally:
            dispatcher.close()

    def test_second_crash_is_unhealthy(self, tmp_path):
        dispatcher = ServiceDispatcher(str(tmp_path / "svc"),
                                       poll_seconds=0.01)

        def dying_step():
            raise RuntimeError("pump keeps dying")

        dispatcher.service.step = dying_step
        try:
            dispatcher.start()
            self.wait_pump_dead(dispatcher)
            assert dispatcher.health()["status"] == "degraded"  # restart 1
            self.wait_pump_dead(dispatcher)                     # dies again
            health = dispatcher.health()
            assert health["status"] == "unhealthy"
            assert health["components"]["pump"] == "dead"
        finally:
            dispatcher.close()

    def test_healthz_maps_states_to_http(self, tmp_path):
        dispatcher = ServiceDispatcher(str(tmp_path / "svc"),
                                       poll_seconds=0.01)

        def dying_step():
            raise RuntimeError("pump keeps dying")

        runner = GatewayRunner(dispatcher, GatewayPolicy(), port=0).start()
        client = Client(runner.port)
        try:
            status, _, health = client.request("GET", "/v1/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["components"] == {"pump": "ok", "disk": "ok"}
            dispatcher.service.step = dying_step
            self.wait_pump_dead(dispatcher)
            status, _, health = client.request("GET", "/v1/healthz")
            assert status == 200 and health["status"] == "degraded"
            self.wait_pump_dead(dispatcher)
            status, headers, health = client.request("GET", "/v1/healthz")
            assert status == 503
            assert health["status"] == "unhealthy"
            assert "Retry-After" in headers
        finally:
            client.close()
            runner.stop()


# ------------------------------------------------------- chaos acceptance
class TestChaosAcceptance:
    def test_gateway_chaos(self, tmp_path):
        """The acceptance scenario: a hang job (no deadline) and a
        crash-looper ride alongside healthy jobs through the gateway.
        The stall detector reaps the hang, the crash-looper lands in
        QUARANTINED with a readable bundle, the healthy jobs match a
        direct pipeline run bit for bit, and the disk-guard drill
        degrades ``/healthz`` then recovers."""
        free = {"bytes": 10 * 1024 * 1024}
        supervisor = SupervisorConfig(
            stall_seconds=1.0, crash_loop_threshold=2,
            backoff=RetryBackoff(base_seconds=0.01),
            disk_low_water_bytes=1024 * 1024,
            disk_high_water_bytes=2 * 1024 * 1024,
            disk_probe=lambda: free["bytes"])
        dispatcher = ServiceDispatcher(str(tmp_path / "gw"), workers=2,
                                       poll_seconds=0.01,
                                       supervisor=supervisor)
        runner = GatewayRunner(dispatcher, GatewayPolicy(), port=0).start()
        client = Client(runner.port)
        try:
            tick = time.monotonic()
            for payload in (
                    {"job_id": "hang", **TINY, "inject_hang_row": 0},
                    {"job_id": "poison", **TINY, "seed": 1,
                     "inject_crash_attempts": 99},
                    {"job_id": "good-1", **TINY, "seed": 2},
                    {"job_id": "good-2", **TINY, "seed": 3}):
                status, _, _ = client.request("POST", "/v1/jobs", payload,
                                              tenant="chaos")
                assert status == 201
            outcomes = {job_id: wait_terminal(client, job_id, timeout=120)
                        for job_id in ("hang", "poison", "good-1", "good-2")}
            elapsed = time.monotonic() - tick

            # The stalled attempt was detected and killed within the
            # stall bound (modulo poll cadence), not a 120 s timeout.
            assert outcomes["hang"]["state"] == "succeeded"
            assert outcomes["hang"]["crashes"] == 1
            assert outcomes["hang"]["failures"] == 0
            assert elapsed < 60

            # Crash-looper: quarantined, with a readable bundle.
            assert outcomes["poison"]["state"] == "quarantined"
            bundle = read_diagnostics(os.path.join(
                str(tmp_path / "gw"), "jobs", "poison"))
            assert bundle["crashes"] == 2
            status, _, body = client.request("GET", "/v1/jobs/poison/result")
            assert status == 410          # no result will ever exist

            # Healthy jobs: bit-identical to a direct pipeline run.
            reference = execute_job(tiny_spec("ref", seed=2),
                                    str(tmp_path / "ref"), attempt=1)
            for job_id, seed in (("good-1", 2), ("good-2", 3)):
                assert outcomes[job_id]["state"] in ("succeeded", "cached")
                status, _, body = client.request(
                    "GET", f"/v1/jobs/{job_id}/result")
                assert status == 200
                if seed == 2:
                    result = body["result"]
                    for key in ("best_score", "alignment_length",
                                "start", "end", "digest0", "digest1"):
                        assert result[key] == reference[key], key

            # Disk-guard drill: degraded + submissions 503, then recovery.
            free["bytes"] = 512 * 1024
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, _, health = client.request("GET", "/v1/healthz")
                if health["status"] == "degraded":
                    break
                time.sleep(0.05)
            assert health["status"] == "degraded"
            assert health["components"]["disk"] == "paused"
            status, headers, _ = client.request(
                "POST", "/v1/jobs", {"job_id": "refused", **TINY, "seed": 9},
                tenant="chaos")
            assert status == 503
            assert "Retry-After" in headers
            free["bytes"] = 10 * 1024 * 1024
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, _, health = client.request("GET", "/v1/healthz")
                if health["status"] == "ok":
                    break
                time.sleep(0.05)
            assert health["status"] == "ok"

            # The journal replays every supervision event to the same
            # terminal states (kill-and-recover equivalence).
            records, _, corrupt = replay_journal(
                os.path.join(str(tmp_path / "gw"), JOURNAL_NAME))
            assert corrupt == 0
            states = {r.job_id: r.state for r in records}
            assert states["poison"] == JobState.QUARANTINED
            assert states["hang"] == JobState.SUCCEEDED
            assert states["good-1"] in (JobState.SUCCEEDED, JobState.CACHED)
            by_id = {r.job_id: r for r in records}
            assert by_id["poison"].crashes == 2
            assert by_id["poison"].diagnostics.endswith("diagnostics.json")

            # SSE stream for the quarantined job ends with the terminal
            # event so subscribers aren't left hanging.
            from tests.test_gateway import read_sse
            events = read_sse(runner.port, "/v1/jobs/poison/events")
            assert events[-1]["event"] == "quarantined"
            assert events[-1]["data"]["final"] is True
        finally:
            client.close()
            runner.stop()


# ------------------------------------------------------- spec validation
class TestSupervisionSpecs:
    def test_spec_supervision_fields_round_trip(self):
        spec = tiny_spec("s", stall_seconds=2.5, max_rss_bytes=1 << 30,
                         inject_hang_row=10, inject_crash_attempts=2)
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            tiny_spec("s", stall_seconds=0)
        with pytest.raises(ConfigError):
            tiny_spec("s", max_rss_bytes=0)
        with pytest.raises(ConfigError):
            tiny_spec("s", inject_crash_attempts=-1)

    def test_supervisor_config_validation(self):
        with pytest.raises(ConfigError):
            SupervisorConfig(stall_seconds=-1)
        with pytest.raises(ConfigError):
            SupervisorConfig(max_rss_bytes=0)
        with pytest.raises(ConfigError):
            SupervisorConfig(crash_loop_threshold=0)

    def test_spec_stall_overrides_pool_default(self, tmp_path):
        # Pool default is generous; the spec's own tight bound wins.
        service = AlignmentService(
            tmp_path / "svc", workers=1,
            supervisor=SupervisorConfig(
                stall_seconds=300.0,
                backoff=RetryBackoff(base_seconds=0.01)))
        service.submit(tiny_spec("wedge", inject_hang_row=0,
                                 stall_seconds=0.75))
        tick = time.monotonic()
        service.run()
        service.close()
        assert time.monotonic() - tick < 60
        assert service.queue.get("wedge").state == JobState.SUCCEEDED
