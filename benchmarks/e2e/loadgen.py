"""HTTP client side of ``gateway-open``: the server process, an open-loop
submitter and a listener on the service-wide event stream.

The load comes from one process with two threads and two connections:
the main thread submits over one keep-alive connection, and a listener
thread holds ``GET /v1/events``.  The listener stamps each
``job_finished`` event on arrival, so a job's latency runs from the
moment its POST was *due* to that stamp.  A stalled submit therefore
counts against every job scheduled behind it (open loop).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HOST = "127.0.0.1"


@dataclass
class Server:
    """A ``repro.cli serve`` subprocess and the port it bound."""

    process: subprocess.Popen
    port: int

    def connect(self, timeout: float = 60.0) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(HOST, self.port, timeout=timeout)

    def stop(self) -> None:
        """SIGTERM (the server's clean shutdown path), then wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def start_server(root: Path, log: Path, env: dict[str, str], cwd: Path,
                 *, workers: int = 2, timeout: float = 60.0) -> Server:
    """Start the gateway with its default admission policy and return once
    ``/v1/healthz`` answers 200."""
    port_file = root.with_suffix(".port")
    port_file.unlink(missing_ok=True)
    with open(log, "ab") as log_handle:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--root", str(root),
             "--port", "0", "--port-file", str(port_file),
             "--workers", str(workers)],
            cwd=cwd, env=env, stdout=log_handle, stderr=log_handle)
    deadline = time.monotonic() + timeout
    try:
        while True:
            if process.poll() is not None:
                raise RuntimeError(f"gateway exited with {process.returncode}"
                                   f" during start-up; see {log}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"gateway not ready after {timeout}s")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                break
            time.sleep(0.005)
        server = Server(process, int(text))
        conn = server.connect()
        try:
            status, _, _ = request(conn, "GET", "/v1/healthz")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"gateway healthz answered {status}")
        return server
    except BaseException:
        process.kill()
        process.wait()
        raise


def request(conn: http.client.HTTPConnection, method: str, path: str,
            payload: Any = None, headers: dict[str, str] | None = None
            ) -> tuple[int, dict[str, str], bytes]:
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json",
                          **(headers or {})})
    response = conn.getresponse()
    data = response.read()
    return response.status, dict(response.getheaders()), data


@dataclass
class Finished:
    """Arrival of one ``job_finished`` event."""

    received: float          # time.perf_counter() at arrival
    lag: float               # arrival wall time minus the event's own time
    event: str               # succeeded | cached | failed | quarantined ...


class EventListener:
    """Reads ``GET /v1/events`` on its own thread; ``finished`` maps job id
    to the arrival of its ``job_finished`` event."""

    def __init__(self, server: Server):
        self.finished: dict[str, Finished] = {}
        self._cond = threading.Condition()
        self._conn = server.connect(timeout=None)
        self._conn.request("GET", "/v1/events")
        # getresponse() hands a Connection: close stream to the response
        # and drops conn.sock, so keep the socket to shut it down later.
        self._sock = self._conn.sock
        self._response = self._conn.getresponse()
        if self._response.status != 200:
            raise RuntimeError(f"/v1/events answered {self._response.status}")
        self._thread = threading.Thread(target=self._read,
                                        name="e2e-events", daemon=True)
        self._thread.start()

    def _read(self) -> None:
        event = data = None
        while True:
            try:
                line = self._response.readline()
            except (OSError, ValueError):
                return                  # close() shut the socket
            if not line:
                return
            line = line.rstrip(b"\r\n")
            if line.startswith(b"event: "):
                event = line[7:].decode()
            elif line.startswith(b"data: "):
                data = line[6:]
            elif not line and event is not None:
                if event == "job_finished" and data is not None:
                    self._note(json.loads(data))
                event = data = None

    def _note(self, record: dict[str, Any]) -> None:
        arrived, arrived_wall = time.perf_counter(), time.time()
        info = record["data"]
        with self._cond:
            self.finished[info["job_id"]] = Finished(
                arrived, arrived_wall - record["time"], info["event"])
            self._cond.notify_all()

    def wait_for(self, job_ids: set[str], timeout: float) -> bool:
        """Block until every id has finished; ``False`` on timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while not job_ids <= self.finished.keys():
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self._cond.wait(left)
        return True

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(timeout=10)
        self._response.close()
        self._conn.close()


@dataclass
class Sent:
    """One scheduled submission (times from ``time.perf_counter()``)."""

    job_id: str
    due: float               # when the POST was scheduled to start
    late: float              # how far behind schedule it started
    seconds: float           # POST round trip
    status: int


def open_loop(conn: http.client.HTTPConnection,
              jobs: list[tuple[str, dict[str, Any]]], rate: float,
              recorder=None) -> list[Sent]:
    """POST ``(tenant, payload)`` pairs at a fixed ``rate`` per second,
    whatever the server's pace.  With a ``recorder``, each POST is a
    ``gateway.post`` span in its job's trace."""
    start = time.perf_counter() + 0.1
    sent: list[Sent] = []
    for index, (tenant, payload) in enumerate(jobs):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        span = (recorder.span("gateway.post", trace=f"job:{payload['job_id']}")
                if recorder is not None else contextlib.nullcontext())
        began = time.perf_counter()
        with span:
            status, _, _ = request(conn, "POST", "/v1/jobs", payload,
                                   {"X-Repro-Tenant": tenant})
        sent.append(Sent(payload["job_id"], due, began - due,
                         time.perf_counter() - began, status))
    return sent
