"""Telemetry sinks: where spans and metric updates go.

Four implementations cover the pipeline's needs:

* :class:`InMemorySink` — keeps finished spans in a list (metric
  updates are not kept: the registry holds their current values); feeds
  ``PipelineResult.spans`` and the run manifest, and is what tests
  assert against.
* :class:`JsonLinesSink` — appends one JSON object per event to a file
  (the ``--trace FILE`` format); every line round-trips through
  ``json.loads``.
* :class:`StderrSink` — a minimal human-readable live renderer for span
  completions (depth-indented, duration-stamped); the observer-based
  :class:`~repro.telemetry.observer.ProgressRenderer` is the richer
  stage-progress view.
* :class:`QueueSink` — pushes each event onto a bounded thread-safe
  queue for an asynchronous consumer; the bridge the gateway drains
  into its server-sent-event streams.

All sinks implement the same three hooks and ignore what they do not
need, so any object with these methods can be passed to the pipeline.
"""

from __future__ import annotations

import json
import os
import queue
import sys
import threading
import time
from typing import Any, IO

from repro.telemetry.spans import Span


class TelemetrySink:
    """No-op base defining the sink interface."""

    def on_span_start(self, span: Span) -> None:
        pass

    def on_span_end(self, span: Span) -> None:
        pass

    def on_metric(self, name: str, kind: str, value: int | float) -> None:
        pass

    def close(self) -> None:
        pass


class InMemorySink(TelemetrySink):
    """Collects finished spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []          # completed, in end order
        self._lock = threading.Lock()

    def on_span_end(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------- helpers
    def find(self, name: str) -> list[Span]:
        """All finished spans with the given name, in end order."""
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        """Finished spans with no parent."""
        return [s for s in self.spans if s.parent_id is None]


class JsonLinesSink(TelemetrySink):
    """Streams events to a JSON-lines trace file.

    Record types: ``trace_start`` (one header line), ``span`` (one per
    completed span, in completion order) and ``metric`` (one per metric
    update).  The file handle is owned by the sink; call :meth:`close`
    (or use the sink as a context manager) when the run is over.
    """

    def __init__(self, path: str | os.PathLike | IO[str]):
        if hasattr(path, "write"):
            self._file: IO[str] = path  # type: ignore[assignment]
            self._owns = False
            self.path = getattr(path, "name", "<stream>")
        else:
            self.path = os.fspath(path)
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._file = open(self.path, "w", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()
        self._write({"type": "trace_start", "clock": "perf_counter",
                     "wall_time": time.time()})

    @staticmethod
    def _default(value: Any) -> Any:
        item = getattr(value, "item", None)  # numpy scalars
        if item is not None:
            try:
                return item()
            except (TypeError, ValueError):
                pass
        return str(value)

    def _write(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True,
                          default=self._default)
        with self._lock:
            self._file.write(line + "\n")

    def on_span_end(self, span: Span) -> None:
        self._write({"type": "span", **span.to_record()})

    def on_metric(self, name: str, kind: str, value: int | float) -> None:
        self._write({"type": "metric", "name": name, "kind": kind,
                     "value": value})

    def close(self) -> None:
        with self._lock:
            self._file.flush()
            if self._owns and not self._file.closed:
                self._file.close()

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class QueueSink(TelemetrySink):
    """Bounded thread-safe queue of telemetry events for async consumers.

    Each span completion becomes ``{"type": "span", ...span record...}``
    and each metric update ``{"type": "metric", "name", "kind",
    "value"}`` — the same record shapes :class:`JsonLinesSink` writes,
    but queued instead of persisted.  The queue is bounded and *lossy on
    the old side*: when a slow consumer lets it fill, the oldest event
    is dropped to make room (counted in :attr:`dropped`), so emitting
    never blocks the pipeline.
    """

    def __init__(self, maxsize: int = 4096):
        self.queue: queue.Queue[dict[str, Any]] = queue.Queue(maxsize)
        self.dropped = 0
        self._lock = threading.Lock()

    def _put(self, record: dict[str, Any]) -> None:
        with self._lock:
            while True:
                try:
                    self.queue.put_nowait(record)
                    return
                except queue.Full:
                    try:
                        self.queue.get_nowait()
                        self.dropped += 1
                    except queue.Empty:  # racing consumer freed space
                        pass

    def on_span_end(self, span: Span) -> None:
        self._put({"type": "span", **span.to_record()})

    def on_metric(self, name: str, kind: str, value: int | float) -> None:
        self._put({"type": "metric", "name": name, "kind": kind,
                   "value": value})

    def drain(self) -> list[dict[str, Any]]:
        """Every queued event, oldest first (non-blocking)."""
        events: list[dict[str, Any]] = []
        while True:
            try:
                events.append(self.queue.get_nowait())
            except queue.Empty:
                return events


class StderrSink(TelemetrySink):
    """Prints finished spans, depth-indented, as they complete.

    ``max_depth`` bounds the noise: kernel-level spans (sweep strips,
    SRA flushes) sit at depth >= 2 and are skipped by default.
    """

    def __init__(self, stream: IO[str] | None = None, *, max_depth: int = 1):
        self.stream = stream if stream is not None else sys.stderr
        self.max_depth = max_depth

    def on_span_end(self, span: Span) -> None:
        if span.depth > self.max_depth:
            return
        indent = "  " * span.depth
        print(f"{indent}{span.name}: {span.duration:.3f}s",
              file=self.stream)
