"""Tests for the HTTP gateway (repro.gateway).

Everything network-facing goes over a real localhost socket — the
protocol tests exercise the exact byte stream a client sees, not the
handlers in isolation.
"""

from __future__ import annotations

import json
import http.client
import sys
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.gateway import (
    EventBroker,
    GatewayPolicy,
    GatewayRunner,
    ServiceDispatcher,
    TokenBucket,
    map_priority_class,
)
from repro.service import (JobSpec, JobState, SupervisorConfig, execute_job,
                           spec_from_payload)
from repro.telemetry import QueueSink

#: Small catalog jobs finish in well under a second each.
TINY = {"catalog": "162Kx172K", "scale": 8192, "block_rows": 32}


# ------------------------------------------------------------------ helpers
class Client:
    """A thin http.client wrapper returning (status, headers, json)."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def request(self, method: str, path: str, payload=None, *,
                tenant: str | None = None, raw_body: bytes | None = None):
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Repro-Tenant"] = tenant
        body = raw_body
        if payload is not None:
            body = json.dumps(payload).encode()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        try:
            decoded = json.loads(data) if data else None
        except json.JSONDecodeError:
            decoded = data
        return response.status, dict(response.getheaders()), decoded

    def close(self):
        self.conn.close()


def wait_terminal(client: Client, job_id: str, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, snapshot = client.request("GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if snapshot["state"] in JobState.TERMINAL:
            return snapshot
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def await_terminal(dispatcher: ServiceDispatcher, job_id: str,
                   timeout: float = 60.0) -> dict:
    """Poll a dispatcher (no HTTP) until ``job_id`` is terminal."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snapshot = dispatcher.snapshot(job_id)
        if snapshot["state"] in JobState.TERMINAL:
            return snapshot
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def read_sse(port: int, path: str, *, timeout: float = 30.0) -> list[dict]:
    """Consume one SSE stream to its end; returns the decoded events."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.request("GET", path)
    response = conn.getresponse()
    assert response.status == 200
    assert response.getheader("Content-Type") == "text/event-stream"
    events = []
    current: dict = {}
    for raw in response:
        line = raw.decode("utf-8").rstrip("\n")
        if not line:
            if current:
                events.append(current)
                current = {}
            continue
        if line.startswith(":"):
            continue
        field, _, value = line.partition(": ")
        if field == "id":
            current["id"] = int(value)
        elif field == "event":
            current["event"] = value
        elif field == "data":
            current["data"] = json.loads(value)
    conn.close()
    return events


@pytest.fixture
def gateway_factory(tmp_path):
    """Start gateways on ephemeral ports; everything stops at teardown."""
    runners = []

    def factory(policy: GatewayPolicy | None = None, *, workers: int = 1,
                resume: bool = False, name: str = "svc",
                max_body: int = 1 << 20) -> GatewayRunner:
        dispatcher = ServiceDispatcher(str(tmp_path / name), workers=workers,
                                       resume=resume, poll_seconds=0.01)
        runner = GatewayRunner(dispatcher, policy, port=0,
                               max_body=max_body).start()
        runners.append(runner)
        return runner

    yield factory
    for runner in runners:
        runner.stop()


# ------------------------------------------------------------------- policy
class TestPolicy:
    def test_token_bucket_rate(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.take() == 0.0
        assert bucket.take() == 0.0          # burst exhausted
        wait = bucket.take()
        assert wait == pytest.approx(0.5)    # 1 token at 2/s
        clock[0] += 0.5
        assert bucket.take() == 0.0
        with pytest.raises(ConfigError):
            TokenBucket(rate=0, burst=1)

    def test_priority_classes(self):
        assert map_priority_class("interactive") > \
               map_priority_class("normal") > map_priority_class("batch")
        with pytest.raises(ConfigError, match="priority class"):
            map_priority_class("urgent")

    def test_admit_quota_and_depth(self):
        clock = [0.0]
        policy = GatewayPolicy(max_active_per_tenant=2, max_queue_depth=4,
                               clock=lambda: clock[0])
        ok = policy.admit("a", tenant_active=0, queue_depth=0)
        assert ok and ok.retry_after == 0.0
        over = policy.admit("a", tenant_active=2, queue_depth=1)
        assert not over and "active jobs" in over.reason
        deep = policy.admit("b", tenant_active=0, queue_depth=4)
        assert not deep and "queue depth" in deep.reason
        assert deep.retry_after >= 1.0
        stats = policy.stats()
        assert stats["a"] == {"submitted": 1, "rejected": 1}
        assert stats["b"] == {"submitted": 0, "rejected": 1}

    def test_admit_rate_limit(self):
        clock = [0.0]
        policy = GatewayPolicy(rate_per_tenant=1.0, burst_per_tenant=1.0,
                               clock=lambda: clock[0])
        assert policy.admit("a", tenant_active=0, queue_depth=0)
        throttled = policy.admit("a", tenant_active=0, queue_depth=0)
        assert not throttled and "rate" in throttled.reason
        assert throttled.retry_after == pytest.approx(1.0)


# ------------------------------------------------------------------- broker
class TestEventBroker:
    def test_backlog_then_live_exactly_once(self):
        import asyncio

        broker = EventBroker()
        broker.publish("j", "queued", {"n": 1})
        broker.publish("j", "running", {"n": 2})

        async def consume():
            backlog, queue = broker.subscribe("j")
            broker.publish("j", "succeeded", {"n": 3}, final=True)
            live = await asyncio.wait_for(queue.get(), timeout=5)
            broker.unsubscribe("j", queue)
            return backlog, live

        backlog, live = asyncio.run(consume())
        assert [e["event"] for e in backlog] == ["queued", "running"]
        assert live["event"] == "succeeded" and live["final"]
        seqs = [e["seq"] for e in backlog] + [live["seq"]]
        assert seqs == sorted(seqs)


# ---------------------------------------------------------------- telemetry
class TestQueueSink:
    def test_bounded_and_lossy_on_the_old_side(self):
        sink = QueueSink(maxsize=2)
        for value in range(4):
            sink.on_metric("m", "counter", value)
        assert sink.dropped == 2
        drained = sink.drain()
        assert [record["value"] for record in drained] == [2, 3]
        assert sink.drain() == []


# ----------------------------------------------------------------- protocol
class TestProtocol:
    def test_submit_status_result_round_trip(self, gateway_factory,
                                             tmp_path):
        runner = gateway_factory()
        client = Client(runner.port)
        status, headers, body = client.request(
            "POST", "/v1/jobs", {"job_id": "rt", **TINY}, tenant="alice")
        assert status == 201
        assert headers["Location"] == "/v1/jobs/rt"
        assert body["tenant"] == "alice"

        snapshot = wait_terminal(client, "rt")
        assert snapshot["state"] == JobState.SUCCEEDED
        assert snapshot["tenant"] == "alice"

        status, headers, result = client.request("GET", "/v1/jobs/rt/result")
        assert status == 200
        assert headers["X-Repro-Digest"].startswith("sha256:")
        # Bit-identical to a direct in-process run of the same spec.
        direct = execute_job(spec_from_payload(dict(TINY)),
                             str(tmp_path / "direct"), attempt=1)
        for key in ("best_score", "alignment_length", "start", "end",
                    "digest0", "digest1"):
            assert result["result"][key] == direct[key], key
        client.close()

    def test_rejections(self, gateway_factory):
        runner = gateway_factory(max_body=512)
        client = Client(runner.port)
        # Malformed JSON body.
        status, _, body = client.request("POST", "/v1/jobs",
                                         raw_body=b"{not json")
        assert status == 400 and "malformed JSON" in body["error"]
        # Schema violation: unknown field (the specfile schema gate),
        # retired knobs included.
        for field in ("bogus", "executor"):
            status, _, body = client.request(
                "POST", "/v1/jobs", {**TINY, field: 1})
            assert status == 400 and "unknown job spec" in body["error"]
        # Invalid knob values surface the ConfigError message.
        status, _, body = client.request(
            "POST", "/v1/jobs", {**TINY, "max_retries": -1})
        assert status == 400 and "max_retries" in body["error"]
        # Oversized body.
        status, _, body = client.request(
            "POST", "/v1/jobs", raw_body=b"x" * 1024)
        assert status == 413
        client.close()   # 413 closes the connection

        client = Client(runner.port)
        # Unknown routes and methods.
        assert client.request("GET", "/v1/nope")[0] == 404
        assert client.request("GET", "/v1/jobs/ghost")[0] == 404
        assert client.request("GET", "/v1/jobs/ghost/result")[0] == 404
        assert client.request("GET", "/v1/jobs/ghost/events")[0] == 404
        assert client.request("PUT", "/v1/jobs")[0] == 405
        # Duplicate job id -> 409.
        assert client.request("POST", "/v1/jobs",
                              {"job_id": "dup", **TINY})[0] == 201
        status, _, body = client.request("POST", "/v1/jobs",
                                         {"job_id": "dup", **TINY})
        assert status == 409 and "already submitted" in body["error"]
        client.close()

    def test_healthz_and_metrics(self, gateway_factory):
        runner = gateway_factory()
        client = Client(runner.port)
        status, _, health = client.request("GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"
        status, _, metrics = client.request("GET", "/v1/metrics")
        assert status == 200
        assert "metrics" in metrics and "tenants" in metrics
        client.close()


# -------------------------------------------------------------- backpressure
class TestBackpressure:
    def test_tenant_concurrency_quota_429(self, gateway_factory):
        runner = gateway_factory(GatewayPolicy(max_active_per_tenant=2))
        runner.dispatcher.pause()    # pin submissions in PENDING
        client = Client(runner.port)
        assert client.request("POST", "/v1/jobs",
                              {"job_id": "q1", **TINY, "seed": 1},
                              tenant="alice")[0] == 201
        assert client.request("POST", "/v1/jobs",
                              {"job_id": "q2", **TINY, "seed": 2},
                              tenant="alice")[0] == 201
        status, headers, body = client.request(
            "POST", "/v1/jobs", {"job_id": "q3", **TINY, "seed": 3},
            tenant="alice")
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "active jobs" in body["error"]
        # A different tenant is not throttled by alice's quota.
        assert client.request("POST", "/v1/jobs",
                              {"job_id": "q4", **TINY, "seed": 4},
                              tenant="bob")[0] == 201
        # Draining the queue frees the quota.
        runner.dispatcher.resume()
        for job_id in ("q1", "q2", "q4"):
            wait_terminal(client, job_id)
        status, _, _ = client.request(
            "POST", "/v1/jobs", {"job_id": "q3", **TINY, "seed": 3},
            tenant="alice")
        assert status == 201
        wait_terminal(client, "q3")
        client.close()

    def test_queue_depth_backpressure_429(self, gateway_factory):
        runner = gateway_factory(GatewayPolicy(max_queue_depth=2))
        runner.dispatcher.pause()
        client = Client(runner.port)
        for seed in (1, 2):
            assert client.request(
                "POST", "/v1/jobs", {**TINY, "seed": seed},
                tenant=f"t{seed}")[0] == 201
        status, headers, body = client.request(
            "POST", "/v1/jobs", {**TINY, "seed": 3}, tenant="t3")
        assert status == 429
        assert "queue depth" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        runner.dispatcher.resume()
        client.close()


# ---------------------------------------------------------------------- SSE
class TestEvents:
    def test_sse_lifecycle_ordering(self, gateway_factory):
        runner = gateway_factory()
        runner.dispatcher.pause()
        client = Client(runner.port)
        assert client.request("POST", "/v1/jobs",
                              {"job_id": "sse", **TINY})[0] == 201
        runner.dispatcher.resume()
        events = read_sse(runner.port, "/v1/jobs/sse/events")
        names = [e["event"] for e in events]
        # Lifecycle order, telemetry spans interleaved after completion.
        assert names[0] == "queued"
        assert "running" in names
        assert names.index("queued") < names.index("running")
        terminal = [n for n in names if n in ("succeeded", "cached")]
        assert terminal, names
        assert events[-1]["data"]["final"] is True
        ids = [e["id"] for e in events]
        assert ids == sorted(ids)
        # The terminal event carries the result summary.
        final = events[-1]
        assert final["data"]["data"]["result"]["best_score"] > 0
        client.close()

    def test_sse_backlog_replay_after_completion(self, gateway_factory):
        runner = gateway_factory()
        client = Client(runner.port)
        client.request("POST", "/v1/jobs", {"job_id": "late", **TINY})
        wait_terminal(client, "late")
        # Subscribing after the fact still yields the whole story.
        events = read_sse(runner.port, "/v1/jobs/late/events")
        names = [e["event"] for e in events]
        assert names[0] == "queued" and "succeeded" in names
        client.close()


# -------------------------------------------------------------- cancellation
class TestCancellation:
    def test_cancel_pending_job(self, gateway_factory):
        runner = gateway_factory()
        runner.dispatcher.pause()
        client = Client(runner.port)
        client.request("POST", "/v1/jobs", {"job_id": "cx", **TINY},
                       tenant="alice")
        status, _, body = client.request("DELETE", "/v1/jobs/cx",
                                         tenant="alice")
        assert status == 200 and body["state"] == "cancelled"
        status, _, snapshot = client.request("GET", "/v1/jobs/cx")
        assert snapshot["state"] == JobState.CANCELLED
        # The result is gone, not pending.
        assert client.request("GET", "/v1/jobs/cx/result")[0] == 410
        # Cancelling again conflicts.
        assert client.request("DELETE", "/v1/jobs/cx",
                              tenant="alice")[0] == 409
        # The SSE stream ends on the cancellation event.
        events = read_sse(runner.port, "/v1/jobs/cx/events")
        assert events[-1]["event"] == "cancelled"
        assert events[-1]["data"]["final"] is True
        client.close()

    def test_cancel_requires_matching_tenant(self, gateway_factory):
        runner = gateway_factory()
        runner.dispatcher.pause()
        client = Client(runner.port)
        client.request("POST", "/v1/jobs", {"job_id": "own", **TINY},
                       tenant="alice")
        status, _, body = client.request("DELETE", "/v1/jobs/own",
                                         tenant="mallory")
        assert status == 403 and "alice" in body["error"]
        assert client.request("DELETE", "/v1/jobs/own",
                              tenant="alice")[0] == 200
        client.close()


# ------------------------------------------------------------- acceptance
class TestAcceptance:
    def test_two_tenants_mixed_priorities_end_to_end(self, gateway_factory,
                                                     tmp_path):
        """The ISSUE demo: >=8 jobs across 2 tenants with mixed priority
        classes, progress streamed over SSE, every result retrieved and
        bit-identical to a direct in-process run, and a 429 observed when
        the per-tenant concurrency quota is exceeded."""
        runner = gateway_factory(
            GatewayPolicy(max_active_per_tenant=4, max_queue_depth=64),
            workers=2)
        client = Client(runner.port)

        submissions = []   # (job_id, spec payload)
        for index in range(8):
            tenant = ("alice", "bob")[index % 2]
            klass = ("interactive", "normal", "batch")[index % 3]
            job_id = f"{tenant}-{index}"
            payload = {"job_id": job_id, **TINY, "seed": index,
                       "priority_class": klass}
            status, _, body = client.request("POST", "/v1/jobs", payload,
                                             tenant=tenant)
            assert status == 201, body
            assert body["priority"] == {"interactive": 20, "normal": 10,
                                        "batch": 0}[klass]
            submissions.append((job_id, payload, tenant))

        # Ninth rapid submission for alice exceeds her active quota
        # while her first four are still queued/running -> 429.  (If the
        # tiny jobs drained faster than the submissions, the quota can
        # legitimately admit it — pause/submit/resume pins the race.)
        runner.dispatcher.pause()
        active = runner.dispatcher.tenant_active("alice")
        overflow_status = None
        for seed in range(100, 100 + 5 - active):
            overflow_status, headers, _ = client.request(
                "POST", "/v1/jobs", {**TINY, "seed": seed}, tenant="alice")
            if overflow_status == 429:
                assert int(headers["Retry-After"]) >= 1
                break
        assert overflow_status == 429
        runner.dispatcher.resume()

        for job_id, payload, tenant in submissions:
            snapshot = wait_terminal(client, job_id)
            assert snapshot["state"] in (JobState.SUCCEEDED, JobState.CACHED)
            status, _, body = client.request("GET",
                                             f"/v1/jobs/{job_id}/result")
            assert status == 200
            direct_payload = {k: v for k, v in payload.items()
                              if k != "priority_class"}
            direct_payload["job_id"] = f"direct-{job_id}"
            direct = execute_job(spec_from_payload(direct_payload),
                                 str(tmp_path / f"direct-{job_id}"),
                                 attempt=1)
            for key in ("best_score", "alignment_length", "start", "end",
                        "digest0", "digest1"):
                assert body["result"][key] == direct[key], (job_id, key)

        # SSE: every job's stream replays to a terminal event.
        for job_id, _, _ in submissions[:3]:
            events = read_sse(runner.port, f"/v1/jobs/{job_id}/events")
            assert events[-1]["data"]["final"] is True

        # Tenancy is visible in listings and metrics.
        status, _, body = client.request("GET", "/v1/jobs?tenant=alice")
        alice_jobs = {j["job_id"] for j in body["jobs"]}
        assert {j for j, _, t in submissions if t == "alice"} <= alice_jobs
        status, _, metrics = client.request("GET", "/v1/metrics")
        assert metrics["tenants"]["alice"]["rejected"] >= 1
        assert metrics["metrics"]["service.jobs_submitted"] >= 8
        client.close()


# ------------------------------------------------------------ dispatcher
class TestDispatcher:
    def test_resume_recovers_accepted_jobs(self, tmp_path):
        """Journal recovery without HTTP: accepted-but-unfinished jobs
        from a dead dispatcher run to completion under resume=True."""
        root = str(tmp_path / "svc")
        first = ServiceDispatcher(root, workers=1)
        first.pause()
        first.start()
        spec = spec_from_payload({"job_id": "recov", **TINY})
        first.submit(spec, tenant="alice")
        # Stop the paused dispatcher without draining, as a crash would
        # leave it: only the journal carries the submission.
        first.close()

        second = ServiceDispatcher(root, workers=1, resume=True)
        second.start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snapshot = second.snapshot("recov")
                if snapshot and snapshot["state"] in JobState.TERMINAL:
                    break
                time.sleep(0.05)
            assert second.snapshot("recov")["state"] == JobState.SUCCEEDED
        finally:
            second.close()

    def test_submission_and_reports_wake_an_idle_pump(self, tmp_path):
        """``poll_seconds`` bounds supervision, not latency: the submit
        wakes the pump to dispatch, and the child's report wakes it to
        settle, long before a 2 s wait would end."""
        dispatcher = ServiceDispatcher(str(tmp_path / "svc"),
                                       poll_seconds=2.0)
        dispatcher.start()
        try:
            time.sleep(0.1)                  # the pump is in its idle wait
            tick = time.monotonic()
            dispatcher.submit(spec_from_payload({"job_id": "wake", **TINY}),
                              tenant="alice")
            snapshot = await_terminal(dispatcher, "wake", timeout=30)
            elapsed = time.monotonic() - tick
        finally:
            dispatcher.close()
        assert snapshot["state"] == JobState.SUCCEEDED
        assert elapsed < 1.0

    def test_cancel_while_the_pump_waits_on_the_attempt(self, tmp_path):
        """Cancel closes the pipe a blocked pump may be waiting on (a
        silent child, so no heartbeat wakes it): the pump neither hangs
        nor dies, and the next job still runs."""
        dispatcher = ServiceDispatcher(str(tmp_path / "svc"),
                                       poll_seconds=2.0)
        dispatcher.start()
        try:
            dispatcher.submit(spec_from_payload(
                {"job_id": "wedge", **TINY, "inject_hang_row": 0}),
                tenant="alice")
            deadline = time.monotonic() + 30
            while (dispatcher.snapshot("wedge")["state"] != JobState.RUNNING
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.2)                 # blocked on the silent pipe
            assert dispatcher.cancel("wedge") is True
            dispatcher.submit(spec_from_payload(
                {"job_id": "after", **TINY, "seed": 1}), tenant="alice")
            snapshot = await_terminal(dispatcher, "after", timeout=30)
            assert snapshot["state"] == JobState.SUCCEEDED
            assert dispatcher.snapshot("wedge")["state"] == \
                JobState.CANCELLED
            assert dispatcher.pump_error is None
            assert dispatcher.ensure_pump() == "ok"
        finally:
            dispatcher.close()

    def test_close_does_not_wait_out_poll_seconds(self, tmp_path):
        dispatcher = ServiceDispatcher(str(tmp_path / "svc"),
                                       poll_seconds=5.0)
        dispatcher.start()
        time.sleep(0.1)                      # the pump is in its idle wait
        tick = time.monotonic()
        dispatcher.close()
        assert time.monotonic() - tick < 1.0

    def test_hot_requeue_still_publishes_retrying(self, tmp_path):
        """With no retry back-off, a round settles a failed attempt and
        dispatches its retry at once, so the pump never sees the job
        pending: its stream must still show ``retrying`` (with the
        failed attempt's counters) before the second ``running``."""
        dispatcher = ServiceDispatcher(
            str(tmp_path / "svc"), supervisor=SupervisorConfig(backoff=None))
        dispatcher.start()
        try:
            dispatcher.submit(spec_from_payload(
                {"job_id": "flaky", **TINY, "inject_failure_row": 100,
                 "max_retries": 1}), tenant="alice")
            snapshot = await_terminal(dispatcher, "flaky")
        finally:
            dispatcher.close()
        assert snapshot["state"] == JobState.SUCCEEDED
        assert snapshot["attempts"] == 2
        lifecycle = [e for e in dispatcher.broker.history("flaky")
                     if e["event"] != "span"]
        assert [e["event"] for e in lifecycle] == [
            "queued", "running", "retrying", "running", "succeeded"]
        retrying, rerun = lifecycle[2]["data"], lifecycle[3]["data"]
        assert retrying["state"] == JobState.PENDING
        assert (retrying["attempts"], retrying["failures"]) == (1, 1)
        assert "error" in retrying
        assert rerun["state"] == JobState.RUNNING
        assert rerun["attempts"] == 2

    def test_racing_submitters_keep_counts_exact(self, tmp_path):
        """Submitter threads race a live pump, with a short switch
        interval to force interleavings: once every job has landed the
        active counts are zero, and each job published exactly one
        terminal event, as its last."""
        dispatcher = ServiceDispatcher(str(tmp_path / "svc"), workers=3)
        tenants = ("alice", "bob", "carol", "dave")
        job_ids = [f"{tenant}-{i}" for tenant in tenants for i in range(4)]

        def submit_all(tenant: str) -> None:
            for i in range(4):       # seeds repeat across tenants: cache hits
                dispatcher.submit(JobSpec(job_id=f"{tenant}-{i}", seed=i,
                                          **TINY), tenant=tenant)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            dispatcher.start()
            threads = [threading.Thread(target=submit_all, args=(tenant,))
                       for tenant in tenants]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
            for job_id in job_ids:
                assert await_terminal(dispatcher, job_id)["state"] in (
                    JobState.SUCCEEDED, JobState.CACHED)
            for tenant in tenants:
                assert dispatcher.tenant_active(tenant) == 0
            assert dispatcher.queue_depth == 0
        finally:
            sys.setswitchinterval(interval)
            dispatcher.close()
        for job_id in job_ids:
            lifecycle = [e for e in dispatcher.broker.history(job_id)
                         if e["event"] != "span"]
            names = [e["event"] for e in lifecycle]
            assert names[0] == "queued", names
            finals = [e["final"] for e in lifecycle]
            assert finals.count(True) == 1 and finals[-1], names
