"""The bridge between the asyncio front door and the synchronous service.

:class:`AlignmentService` is deliberately synchronous — its queue,
worker pool and journal are plain blocking code — so the gateway drives
it from one background *pump thread* that calls ``service.step()``
(poll + settle + dispatch) each time something happens: a worker pipe
turns readable (heartbeat, report, child death), or ``submit``,
``cancel``, ``resume`` or ``stop`` writes to the pump's wakeup socket.
Between events it waits at most ``poll_seconds``, the bound on how
long a silent hung attempt, a retry back-off or the disk guard goes
unchecked.  Every touch of the service goes through one lock; request
handlers only ever hold it for microsecond-scale operations (submit a
spec, snapshot a record), so the event loop never blocks on an
alignment.

The pump also turns state into events: after each round it diffs job
states against the last round and publishes lifecycle events
(``queued``/``running``/``retrying``/``succeeded``/``cached``/
``failed``/``cancelled``/``quarantined``) to the
:class:`~repro.gateway.events.EventBroker`,
and drains the service's :class:`~repro.telemetry.QueueSink` —
``service.job`` span completions land on the owning job's stream, and a
throttled metrics snapshot lands on the service-wide stream.

Kill-and-restart safety comes for free from the service: every accepted
submission is journaled before the HTTP 201 goes out, so a gateway
started with ``resume=True`` replays the journal and finishes what an
earlier process accepted.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any

from repro.gateway.events import SERVICE_STREAM, EventBroker
from repro.service.job import JobRecord, JobSpec, JobState
from repro.service.service import AlignmentService
from repro.service.worker import wait_readable
from repro.telemetry.sinks import QueueSink

#: Lifecycle event name per (previous state -> new state) edge; states
#: not listed fall back to the new state's name.
_FINAL_STATES = frozenset({JobState.SUCCEEDED, JobState.CACHED,
                           JobState.FAILED, JobState.CANCELLED,
                           JobState.QUARANTINED})

#: Result-summary keys worth carrying in terminal events (the full
#: payload stays behind GET /v1/jobs/{id}/result).
_EVENT_RESULT_KEYS = ("best_score", "alignment_length", "wall_seconds",
                      "resumed_from_row")


class ServiceDispatcher:
    """Owns an :class:`AlignmentService` and pumps it from a thread.

    ``poll_seconds`` is the longest the pump waits between supervision
    checks, not a cadence: worker messages and submissions wake it at
    once.
    """

    def __init__(self, root: str, *, workers: int = 1, resume: bool = False,
                 poll_seconds: float = 0.02, metrics_interval: float = 1.0,
                 sinks: tuple = (), supervisor=None, batching=None):
        self.sink = QueueSink()
        self.service = AlignmentService(
            root, workers=workers, resume=resume,
            sinks=(self.sink,) + tuple(sinks),
            supervisor=supervisor, batching=batching)
        self.broker = EventBroker()
        self.poll_seconds = poll_seconds
        self.metrics_interval = metrics_interval
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Per job, the (state, attempts) its last published event showed.
        self._states: dict[str, tuple[str, int]] = {}
        self._tenants: dict[str, str] = {}
        # The pump's wakeup channel.  A socket pair, because
        # connection.wait takes a raw pipe descriptor only on Unix.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._paused = False
        self._last_metrics = 0.0
        self._pump_error: str | None = None
        self._pump_restarts = 0
        # Jobs recovered from the journal predate this process: seed the
        # state map (emitting their current state as the first event
        # keeps late SSE subscribers coherent).
        for record in self.service.queue.records():
            self._states[record.job_id] = (record.state, record.attempts)
            self.broker.publish(record.job_id, self._event_name(record),
                                self._event_data(record),
                                final=record.state in _FINAL_STATES)

    # ----------------------------------------------------------- lifecycle
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._pump,
                                        name="repro-gateway-pump",
                                        daemon=True)
        self._thread.start()

    def ensure_pump(self) -> str:
        """Supervise the pump thread itself.

        Returns the pump component state: ``"ok"`` (alive, never
        crashed), ``"degraded"`` (crashed once and was restarted — the
        one-shot restart happens right here), or ``"dead"`` (crashed
        again past the restart budget; the gateway reports unhealthy and
        a human gets to look at :attr:`pump_error`).
        """
        if self._thread is None or self._stop.is_set():
            return "ok"     # nothing running to supervise
        if self._thread.is_alive():
            return "degraded" if self._pump_restarts else "ok"
        if self._pump_restarts < 1:
            self._pump_restarts += 1
            with self._lock:
                self.service.telemetry.metrics.counter(
                    "supervision.pump_restarts").add(1)
            self._thread = None
            self.start()
            return "degraded"
        return "dead"

    @property
    def pump_error(self) -> str | None:
        """The exception that killed the pump thread, if any."""
        return self._pump_error

    def stop(self) -> None:
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def close(self) -> None:
        self.stop()
        self._wake_recv.close()
        self._wake_send.close()
        with self._lock:
            self.service.write_manifest()
            self.service.close()

    def pause(self) -> None:
        """Suspend dispatching (tests use this to pin jobs in PENDING;
        submissions and cancellations still work)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        self._wake()

    # ------------------------------------------------------------- actions
    def submit(self, spec: JobSpec, tenant: str) -> dict[str, Any]:
        """Thread-safe submission; journaled before this returns."""
        self.ensure_pump()   # a dead pump must not silently strand jobs
        with self._lock:
            record = self.service.submit(spec)
            self._tenants[record.job_id] = tenant
            self._states[record.job_id] = (record.state, record.attempts)
            snapshot = self._snapshot_locked(record)
            # Under the lock, like every lifecycle publish: a job's
            # events go out in the order of its transitions, whichever
            # thread saw them.
            self.broker.publish(record.job_id, "queued",
                                {"tenant": tenant, "state": record.state,
                                 "priority": spec.priority})
        self._wake()
        return snapshot

    def cancel(self, job_id: str) -> bool:
        """Cancel via the service; ``False`` when already terminal."""
        with self._lock:
            cancelled = self.service.cancel(job_id)
            if cancelled:
                self._publish(self._sync_locked())
                # The pump may be waiting on the pipe the cancel closed.
                self._wake()
        return cancelled

    # --------------------------------------------------------------- views
    def snapshot(self, job_id: str) -> dict[str, Any] | None:
        with self._lock:
            record = self.service.queue.find(job_id)
            if record is None:
                return None
            return self._snapshot_locked(record)

    def jobs(self, tenant: str | None = None) -> list[dict[str, Any]]:
        with self._lock:
            records = self.service.queue.records()
            return [self._snapshot_locked(r) for r in records
                    if tenant is None
                    or self._tenants.get(r.job_id) == tenant]

    def tenant_active(self, tenant: str) -> int:
        """Non-terminal jobs currently owned by ``tenant``."""
        with self._lock:
            return sum(1 for r in self.service.queue.records()
                       if not r.done
                       and self._tenants.get(r.job_id) == tenant)

    def tenant_of(self, job_id: str) -> str | None:
        with self._lock:
            return self._tenants.get(job_id)

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self.service.queue.depth

    def metrics(self) -> dict[str, Any]:
        with self._lock:
            return dict(self.service.telemetry.metrics.snapshot())

    def health(self) -> dict[str, Any]:
        """Component-level health: ``ok`` | ``degraded`` | ``unhealthy``.

        The pump component self-heals here (see :meth:`ensure_pump`);
        a tripped disk guard degrades the gateway without killing it;
        a pump dead past its restart budget is ``unhealthy``.
        """
        pump = self.ensure_pump()
        with self._lock:
            queue = self.service.queue
            disk_paused = self.service.disk_paused
            quarantined = sum(1 for r in queue.records()
                              if r.state == JobState.QUARANTINED)
            if pump == "dead":
                status = "unhealthy"
            elif pump == "degraded" or disk_paused:
                status = "degraded"
            else:
                status = "ok"
            return {
                "status": status,
                "components": {
                    "pump": pump,
                    "disk": "paused" if disk_paused else "ok",
                },
                "pump_error": self._pump_error,
                "jobs": len(queue),
                "queue_depth": queue.depth,
                "in_flight": self.service.pool.in_flight,
                "workers": self.service.pool.workers,
                "quarantined": quarantined,
                "paused": self._paused,
            }

    @property
    def disk_paused(self) -> bool:
        with self._lock:
            return self.service.disk_paused

    # ------------------------------------------------------------ internals
    def _snapshot_locked(self, record: JobRecord) -> dict[str, Any]:
        snapshot = record.to_json()
        snapshot["tenant"] = self._tenants.get(record.job_id)
        return snapshot

    @staticmethod
    def _event_name(record: JobRecord) -> str:
        if record.state == JobState.PENDING:
            return ("retrying" if record.failures or record.interruptions
                    else "queued")
        return record.state    # running/succeeded/.../quarantined

    @staticmethod
    def _event_data(record: JobRecord) -> dict[str, Any]:
        data: dict[str, Any] = {"state": record.state,
                                "attempts": record.attempts,
                                "failures": record.failures}
        if record.error:
            data["error"] = record.error
        if record.result:
            data["result"] = {k: record.result[k]
                              for k in _EVENT_RESULT_KEYS
                              if k in record.result}
        if record.cache_hit:
            data["cache_hit"] = True
        return data

    def _sync_locked(self) -> list[tuple[str, str, dict[str, Any], bool]]:
        """Diff job states against the last round (lock held); returns
        the events for the caller to publish while it still holds the
        lock."""
        events = []
        for record in self.service.queue.records():
            state, attempts = self._states.get(record.job_id, (None, 0))
            rerun = (record.state == state == JobState.RUNNING
                     and record.attempts > attempts)
            if record.state == state and not rerun:
                continue
            self._states[record.job_id] = (record.state, record.attempts)
            if rerun:
                # Settled and dispatched again within one round (a retry
                # with no back-off): publish the requeue the diff missed,
                # as it read while the job was pending.
                events.append((record.job_id, "retrying",
                               {**self._event_data(record),
                                "state": JobState.PENDING,
                                "attempts": record.attempts - 1}, False))
            events.append((record.job_id, self._event_name(record),
                           self._event_data(record),
                           record.state in _FINAL_STATES))
        return events

    def _publish(self, events) -> None:
        for job_id, name, data, final in events:
            self.broker.publish(job_id, name, data, final=final)
            if final:
                self.broker.publish(SERVICE_STREAM, "job_finished",
                                    {"job_id": job_id, "event": name})

    def _relay_telemetry(self, drained: list[dict[str, Any]]) -> None:
        """Spans with a job_id reach that job's stream; a throttled
        metrics snapshot reaches the service stream."""
        saw_metric = False
        for record in drained:
            if record.get("type") == "span":
                job_id = (record.get("attributes") or {}).get("job_id")
                if job_id:
                    self.broker.publish(str(job_id), "span", record)
            else:
                saw_metric = True
        now = time.monotonic()
        if saw_metric and now - self._last_metrics >= self.metrics_interval:
            self._last_metrics = now
            self.broker.publish(SERVICE_STREAM, "metrics", self.metrics())

    def _wake(self) -> None:
        """Make the pump's current (or next) wait return at once."""
        try:
            self._wake_send.send(b"\0")
        except OSError:
            pass    # buffer full: a wakeup is already pending; or closed

    def _pump(self) -> None:
        try:
            while not self._stop.is_set():
                pipes = []
                with self._lock:
                    if not self._paused:
                        self.service.step()
                        self._publish(self._sync_locked())
                        # A paused pump reads no pipe, so it must not
                        # wait on one: unread heartbeats would spin it.
                        pipes = self.service.pool.pipes()
                self._relay_telemetry(self.sink.drain())
                wait_readable(pipes + [self._wake_recv], self.poll_seconds)
                try:
                    while self._wake_recv.recv(4096):
                        pass
                except BlockingIOError:
                    pass
        except Exception as exc:  # noqa: BLE001 - the thread must not die
            # silently: record why, so /healthz can surface it and
            # ensure_pump() can decide on the one-shot restart.
            self._pump_error = f"{type(exc).__name__}: {exc}"
