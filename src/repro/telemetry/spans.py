"""Spans: nestable, timed trace sections.

A :class:`Span` covers one section of work — a pipeline stage, one
``RowSweeper.advance`` strip, a Myers-Miller split, an SRA flush — and
records two clocks: the wall-clock epoch at entry (``start_wall``,
``time.time``) and a monotonic interval (``start``/``end``,
``time.perf_counter``) shared by every span of the same :class:`Tracer`,
so durations are exact and span timestamps are mutually comparable.

Nesting is tracked per thread: the innermost open span of the current
thread becomes the parent of the next one.

Sinks (:mod:`repro.telemetry.sinks`) observe spans as they open and
close; the tracer itself stores nothing, so tracing an unbounded run
costs O(open spans) memory.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator


class Span:
    """One timed, attribute-carrying section of a trace.

    Attributes:
        name: dotted section name (``"stage1"``, ``"sweep.advance"``).
        span_id: unique (per tracer) integer id.
        parent_id: id of the enclosing span, or ``None`` for a root span.
        depth: nesting depth (0 for a root span).
        start_wall: wall-clock epoch seconds at entry.
        start / end: ``perf_counter`` seconds on the tracer's shared
            clock; ``end`` is ``None`` while the span is open.
        attributes: free-form key/value payload; extend with :meth:`set`.
    """

    __slots__ = ("name", "span_id", "parent_id", "depth", "start_wall",
                 "start", "end", "attributes")

    def __init__(self, name: str, span_id: int, parent_id: int | None,
                 depth: int, attributes: dict[str, Any]):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.attributes = attributes
        self.start_wall = time.time()
        self.start = time.perf_counter()
        self.end: float | None = None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now while the span is still open)."""
        return (self.end if self.end is not None
                else time.perf_counter()) - self.start

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_record(self) -> dict[str, Any]:
        """JSON-safe dict form (the trace-file and manifest format)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_wall": self.start_wall,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.end is not None else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class Tracer:
    """Produces nested spans and forwards them to sinks.

    Thread-safe: ids come from an atomic counter and each thread keeps
    its own open-span stack.
    """

    def __init__(self, sinks: tuple = ()):
        self.sinks = tuple(sinks)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of the calling thread's current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, next(self._ids),
                    parent.span_id if parent is not None else None,
                    parent.depth + 1 if parent is not None else 0,
                    attributes)
        stack.append(span)
        for sink in self.sinks:
            sink.on_span_start(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            for sink in self.sinks:
                sink.on_span_end(span)
