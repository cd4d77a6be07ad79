"""The per-run telemetry bundle the pipeline threads through the stages.

:class:`Telemetry` owns one :class:`~repro.telemetry.spans.Tracer`, one
:class:`~repro.telemetry.metrics.MetricsRegistry` and the run's
observers, and fans sink events out to all of them.  Stage functions
accept ``telemetry=None`` and fall back to the module-level
:data:`NULL_TELEMETRY`, whose every operation is a no-op — standalone
stage calls pay nothing for the instrumentation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.observer import PipelineObserver
from repro.telemetry.sinks import TelemetrySink
from repro.telemetry.spans import Tracer


class _ObserverMetricFanout(TelemetrySink):
    """Forwards registry updates to observer ``on_metric`` hooks."""

    def __init__(self, observers: tuple[PipelineObserver, ...]):
        self.observers = observers

    def on_metric(self, name: str, kind: str, value: int | float) -> None:
        for observer in self.observers:
            observer.on_metric(name, value)


class Telemetry:
    """Tracer + metrics + observers for one pipeline run."""

    def __init__(self, sinks: tuple = (),
                 observers: tuple[PipelineObserver, ...] = ()):
        self.observers = tuple(observers)
        all_sinks = tuple(sinks)
        if self.observers:
            all_sinks += (_ObserverMetricFanout(self.observers),)
        self.sinks = all_sinks
        self.tracer = Tracer(all_sinks)
        self.metrics = MetricsRegistry(all_sinks)

    # ----------------------------------------------------------- tracing
    def span(self, name: str, **attributes: Any):
        return self.tracer.span(name, **attributes)

    # ---------------------------------------------------------- integrity
    def corruption(self, kind: str, path: str, *, action: str,
                   detail: str = "", count: int = 1) -> None:
        """Record detected artifact corruption and the recovery taken.

        One call per incident: bumps ``integrity.corruption_detected``,
        the per-kind ``integrity.corrupt.<kind>`` counter and — because
        every detection site has a degrade path — ``integrity.recovered``
        with the ``action`` (``recomputed``, ``widened``, ``evicted``,
        ``requeued``, ``quarantined``) attached to an
        ``integrity.corruption`` span event.
        """
        self.metrics.counter("integrity.corruption_detected").add(count)
        self.metrics.counter(f"integrity.corrupt.{kind}").add(count)
        self.metrics.counter("integrity.recovered").add(count)
        with self.span("integrity.corruption", kind=kind, path=str(path),
                       action=action, count=count) as span:
            if detail:
                span.set(detail=detail)

    # ---------------------------------------------------------- observers
    def stage_start(self, stage: str) -> None:
        for observer in self.observers:
            observer.on_stage_start(stage)

    def stage_progress(self, stage: str, fraction: float) -> None:
        for observer in self.observers:
            observer.on_stage_progress(stage, fraction)

    def stage_end(self, stage: str, result: Any | None) -> None:
        for observer in self.observers:
            observer.on_stage_end(stage, result)

    def close(self) -> None:
        """Flush/close every sink that supports it."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class _NullSpan:
    """Shared inert span: accepts attributes, times nothing."""

    __slots__ = ()
    name = "null"
    span_id = 0
    parent_id = None
    depth = 0
    start_wall = 0.0
    start = 0.0
    end = 0.0
    duration = 0.0
    attributes: dict[str, Any] = {}

    def set(self, **attributes: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _NullInstrument:
    """Counter/gauge/histogram lookalike that drops every update."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def add(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass

    @contextmanager
    def time(self) -> Iterator[None]:
        yield

    def summary(self) -> dict[str, Any]:
        return {"count": 0, "total": 0.0, "min": None, "max": None,
                "mean": 0.0}


_NULL_INSTRUMENT = _NullInstrument()


class _NullMetrics:
    """Registry lookalike backing :data:`NULL_TELEMETRY`."""

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict[str, Any]:
        return {}

    def __len__(self) -> int:
        return 0


class NullTelemetry:
    """Free-of-charge stand-in used when no telemetry was requested.

    ``tracer`` is ``None`` on purpose: kernel-level emitters
    (``RowSweeper``, the SRA store, checkpointing) take a tracer object
    and guard on it, so the untraced hot path stays branch-cheap.
    """

    __slots__ = ()
    tracer = None
    observers: tuple = ()
    sinks: tuple = ()
    metrics = _NullMetrics()

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[_NullSpan]:
        yield _NULL_SPAN

    def corruption(self, kind: str, path: str, *, action: str,
                   detail: str = "", count: int = 1) -> None:
        pass

    def stage_start(self, stage: str) -> None:
        pass

    def stage_progress(self, stage: str, fraction: float) -> None:
        pass

    def stage_end(self, stage: str, result: Any | None) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TELEMETRY = NullTelemetry()
