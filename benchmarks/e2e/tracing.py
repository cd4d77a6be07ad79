"""Spans of the traced run, and the per-layer breakdown built from them.

Two sources feed one :class:`Recorder`:

* The pipeline's own telemetry.  Every ``CUDAlign.run`` records a
  ``pipeline`` span, one span per stage, one per ``RowSweeper.advance``
  strip, Myers-Miller midpoint search, SRA flush or load and Stage-1
  checkpoint.  They come back in ``PipelineResult.spans`` and in each
  service job's ``jobs/<id>/manifest.json``, written by the worker that
  ran it.  :meth:`Recorder.adopt` takes them in under layer names
  (:data:`LAYER_OF`).
* Timing wrappers around the few layer entry points that open no span of
  their own (:data:`FULL_MATRIX`, :data:`SEQUENCES`, :data:`SUBMIT`).
  :meth:`Recorder.patched` swaps a wrapper in for the ``with`` body and
  restores the original; nothing under ``src/`` changes for the
  benchmark.

Every span carries a trace id: ``run:<k>`` for one timed ``CUDAlign.run``
of a pair workload, ``job:<id>`` for everything about one service job.
:func:`nest` gives each span of a trace its innermost enclosing span as
parent, and :func:`exclusive_seconds` turns that tree into self times
that add up to the root's wall time.  Spans stay in memory;
:meth:`Recorder.write` dumps them as JSON lines when the workload ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: Telemetry span name -> the layer row it is booked to.
LAYER_OF = {
    "pipeline": "core.pipeline",
    "stage1": "core.stage1",
    "stage2": "core.stage2",
    "stage3": "core.stage3",
    "stage4": "core.stage4",
    "stage5": "core.stage5",
    "sweep.advance": "align.sweep",
    "mm.find_midpoint": "align.mm_midpoint",
    "sra.flush": "storage.sra_save",
    "sra.load": "storage.sra_load",
    "checkpoint.save": "storage.checkpoint",
}
#: Time a root spends outside every child span is booked here.
UNATTRIBUTED = "unattributed"
_OWN_TIME = {"core.run", "core.pipeline"}

#: ``(module, attribute, span name)`` of each wrapped call site.  Stage 5
#: calls ``global_align`` through its own module's name, so the wrapper
#: goes there.
FULL_MATRIX = (("repro.core.stage5", "global_align", "align.full_matrix"),)
SEQUENCES = (("repro.sequences.catalog", "CatalogEntry.build",
              "sequences.build"),)
SUBMIT = (("repro.service.service", "AlignmentService.submit",
           "service.submit"),)


class Span:
    """One timed interval on ``time.perf_counter()``'s clock."""

    __slots__ = ("id", "name", "start", "end", "trace", "parent", "attrs")

    def __init__(self, span_id: int, name: str, start: float, end: float,
                 trace: Any, attrs: dict[str, Any] | None = None):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.trace = trace
        self.parent: Span | None = None      # set by nest()
        self.attrs = attrs or {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def record(self) -> dict[str, Any]:
        return {"id": self.id, "name": self.name,
                "parent": self.parent.id if self.parent else None,
                "trace": self.trace, "start": self.start, "end": self.end,
                **({"attrs": self.attrs} if self.attrs else {})}


class Recorder:
    """Collects spans in memory.  Used from one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._open: list[Span] = []

    def add(self, name: str, start: float, end: float, trace: Any,
            attrs: dict[str, Any] | None = None) -> Span:
        span = Span(next(self._ids), name, start, end, trace, attrs)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, trace: Any):
        """Time the ``with`` body; wrapped calls inside it join ``trace``."""
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, trace)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            self.spans.append(span)

    def adopt(self, records: Iterable[dict[str, Any]], trace: Any
              ) -> list[Span]:
        """Take in the pipeline's span records (``PipelineResult.spans``
        or a manifest's ``spans``) under their layer names."""
        spans = [Span(next(self._ids), LAYER_OF.get(r["name"], r["name"]),
                      r["start"], r["end"], trace, r["attributes"])
                 for r in records]
        self.spans += spans
        return spans

    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, start, time.perf_counter(),
                         self._open[-1].trace if self._open else None)
        return traced

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple[str, str, str]]):
        """Wrap every target for the ``with`` body, then restore it.

        A target the code no longer defines raises ``KeyError`` here, so
        a renamed function fails the run instead of zeroing its layer.
        """
        undo = []
        try:
            for module_name, qualname, name in targets:
                owner: Any = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(original, name))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def by_trace(self) -> dict[Any, list[Span]]:
        groups: dict[Any, list[Span]] = defaultdict(list)
        for span in self.spans:
            groups[span.trace].append(span)
        return groups

    def write(self, path, header: dict[str, Any]) -> None:
        """Dump every span, oldest first, after one header line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.record(), sort_keys=True,
                                        default=str) + "\n")


def nest(root: Span, spans: Iterable[Span]) -> list[Span]:
    """Parent every span of ``root``'s trace that lies inside ``root`` on
    the innermost span enclosing it; return them, outermost first.

    Spans must nest the way calls on one thread do.  Two that overlap
    without one holding the other raise ``ValueError``: they would be
    counted twice.
    """
    inside = sorted((s for s in spans if s is not root
                     and s.trace == root.trace
                     and root.start <= s.start and s.end <= root.end),
                    key=lambda s: (s.start, -s.end))
    stack = [root]
    for span in inside:
        while len(stack) > 1 and span.start >= stack[-1].end:
            stack.pop()
        if span.end > stack[-1].end:
            raise ValueError(f"{span.name} overlaps {stack[-1].name} "
                             f"without nesting in it")
        span.parent = stack[-1]
        stack.append(span)
    return inside


def exclusive_seconds(root: Span, inside: list[Span]) -> dict[str, float]:
    """Self time per row: each span's duration minus its children's.

    ``inside`` is what :func:`nest` returned for ``root``.  Rows are span
    names, except that the root's and the pipeline span's own time is
    ``"unattributed"``; they add up to the root's wall time.
    """
    def row(span: Span) -> str:
        return (UNATTRIBUTED if span is root or span.name in _OWN_TIME
                else span.name)

    rows: dict[str, float] = defaultdict(float)
    rows[UNATTRIBUTED] += root.seconds
    for span in inside:
        rows[row(span)] += span.seconds
        rows[row(span.parent)] -= span.seconds
    return dict(rows)
