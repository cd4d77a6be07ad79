"""Telemetry subsystem coverage: spans, metrics, sinks, observers,
pipeline-level tracing and the run manifest."""

from __future__ import annotations

import io
import json
import os
import time
import warnings

import pytest

from repro.core import CUDAlign, small_config
from repro.errors import ConfigError
from repro.telemetry import (
    CallbackObserver,
    InMemorySink,
    JsonLinesSink,
    MetricsRegistry,
    NULL_TELEMETRY,
    PipelineObserver,
    ProgressRenderer,
    Telemetry,
    Tracer,
    as_observer,
    read_manifest,
)

from tests.conftest import make_pair


class TestSpans:
    def test_nesting_and_ids(self):
        sink = InMemorySink()
        tracer = Tracer((sink,))
        with tracer.span("outer", label="a") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == outer.depth + 1
        assert tracer.current() is None
        # Children complete (and are recorded) before their parents.
        assert [s.name for s in sink.spans] == ["inner", "outer"]
        assert sink.roots() == [outer]
        assert sink.children_of(outer) == [inner]
        assert outer.attributes == {"label": "a"}

    def test_timing_is_monotone_and_contained(self):
        sink = InMemorySink()
        tracer = Tracer((sink,))
        with tracer.span("outer"):
            time.sleep(0.002)
            with tracer.span("inner"):
                time.sleep(0.002)
        inner, outer = sink.spans
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert outer.duration >= inner.duration > 0
        assert outer.end is not None

    def test_set_attributes_and_record(self):
        tracer = Tracer()
        with tracer.span("work", m=3) as span:
            span.set(cells=12, m=4)
        record = span.to_record()
        assert record["name"] == "work"
        assert record["attributes"] == {"m": 4, "cells": 12}
        assert record["duration"] == record["end"] - record["start"]


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("cells").add(10)
        registry.counter("cells").add(5)
        registry.gauge("mcups").set(3.5)
        for value in (1.0, 2.0, 3.0):
            registry.histogram("lat").observe(value)
        snap = registry.snapshot()
        assert snap["cells"] == 15
        assert snap["mcups"] == 3.5
        assert snap["lat"]["count"] == 3
        assert snap["lat"]["min"] == 1.0
        assert snap["lat"]["max"] == 3.0
        assert snap["lat"]["mean"] == pytest.approx(2.0)
        assert len(registry) == 3

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("n").add(-1)

    def test_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_same_instrument_returned(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")


class TestJsonLinesSink:
    def test_round_trip(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        tel = Telemetry(sinks=(sink,))
        with tel.span("outer", m=5):
            tel.metrics.counter("cells").add(7)
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        assert records[0]["type"] == "trace_start"
        kinds = [r["type"] for r in records[1:]]
        assert kinds == ["metric", "span"]
        metric = records[1]
        assert (metric["name"], metric["kind"], metric["value"]) == \
            ("cells", "counter", 7)
        span = records[2]
        assert span["name"] == "outer"
        assert span["attributes"] == {"m": 5}

    def test_file_sink_closes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonLinesSink(path) as sink:
            tracer = Tracer((sink,))
            with tracer.span("a"):
                pass
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)


class TestObservers:
    def test_callable_shim_warns_and_forwards(self):
        events = []
        with pytest.warns(DeprecationWarning):
            observer = as_observer(lambda s, f: events.append((s, f)))
        assert isinstance(observer, CallbackObserver)
        observer.on_stage_progress("stage1", 0.5)
        observer.on_stage_end("stage1", None)
        assert events == [("stage1", 0.5), ("stage1", 1.0)]

    def test_observer_passes_through_without_warning(self):
        observer = PipelineObserver()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_observer(observer) is observer

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            as_observer(42)

    def test_telemetry_dispatch(self):
        class Recorder(PipelineObserver):
            def __init__(self):
                self.calls = []

            def on_stage_start(self, stage):
                self.calls.append(("start", stage))

            def on_stage_end(self, stage, result):
                self.calls.append(("end", stage, result))

            def on_metric(self, name, value):
                self.calls.append(("metric", name, value))

        recorder = Recorder()
        tel = Telemetry(observers=(recorder,))
        tel.stage_start("stage1")
        tel.metrics.counter("cells").add(3)
        tel.stage_end("stage1", "result")
        assert recorder.calls == [("start", "stage1"),
                                  ("metric", "cells", 3),
                                  ("end", "stage1", "result")]

    def test_progress_renderer_output(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream)
        renderer.on_stage_start("stage1")
        renderer.on_stage_progress("stage1", 0.55)
        renderer.on_stage_end("stage1", None)
        out = stream.getvalue()
        assert "[stage1] started" in out
        assert "55.0%" in out
        assert "done in" in out


class TestNullTelemetry:
    def test_null_is_free_and_complete(self):
        with NULL_TELEMETRY.span("anything", m=1) as span:
            span.set(cells=2)
        NULL_TELEMETRY.metrics.counter("x").add(5)
        NULL_TELEMETRY.metrics.gauge("y").set(1)
        assert NULL_TELEMETRY.metrics.snapshot() == {}
        assert NULL_TELEMETRY.tracer is None
        NULL_TELEMETRY.stage_start("stage1")
        NULL_TELEMETRY.stage_end("stage1", None)


class TestPipelineTelemetry:
    def test_one_top_level_span_per_stage(self, rng):
        s0, s1 = make_pair(rng, 300, 300)
        config = small_config(block_rows=32, n=len(s1), sra_rows=4)
        result = CUDAlign(config).run(s0, s1)
        spans = result.spans
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["pipeline"]
        root = roots[0]
        top = [s for s in spans if s["parent_id"] == root["span_id"]]
        names = [s["name"] for s in top]
        executed = {"stage" + key for key in result.stages()}
        assert sorted(names) == sorted(executed)
        assert len(names) == len(set(names))  # exactly one each
        # Stage spans are ordered and contained in the pipeline span.
        ordered = sorted(top, key=lambda s: s["start"])
        for before, after in zip(ordered, ordered[1:]):
            assert before["end"] <= after["start"]
        for span in top:
            assert root["start"] <= span["start"] <= span["end"] <= root["end"]

    def test_kernel_child_spans_present(self, rng):
        s0, s1 = make_pair(rng, 300, 300)
        config = small_config(block_rows=32, n=len(s1), sra_rows=4)
        result = CUDAlign(config).run(s0, s1)
        names = {s["name"] for s in result.spans}
        assert "sweep.advance" in names
        assert "sra.flush" in names

    def test_metrics_on_result(self, rng):
        s0, s1 = make_pair(rng, 300, 300)
        config = small_config(block_rows=32, n=len(s1), sra_rows=4)
        result = CUDAlign(config).run(s0, s1, visualize=False)
        assert result.metrics["cells.swept"] > 0
        assert result.metrics["crosspoints.L2"] == \
            len(result.stage2.crosspoints)
        assert result.metrics["sra.bytes_flushed"] > 0

    def test_stage_results_share_contract(self, rng):
        s0, s1 = make_pair(rng, 200, 200)
        config = small_config(block_rows=32, n=len(s1), sra_rows=2)
        result = CUDAlign(config).run(s0, s1)
        for key, stage in result.stages().items():
            stats = stage.stats()
            assert stats["stage"] == key
            assert stats["wall_seconds"] >= 0
            assert stats["cells"] >= 0
            json.dumps(stats)  # JSON-safe by contract
        assert result.stage6.modeled_seconds == result.stage6.wall_seconds
        assert result.stage6.cells == 0

    def test_external_sink_receives_run(self, rng):
        s0, s1 = make_pair(rng, 200, 200)
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        config = small_config(block_rows=32, n=len(s1), sra_rows=2)
        CUDAlign(config, sinks=(sink,)).run(s0, s1, visualize=False)
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        names = {r["name"] for r in records if r["type"] == "span"}
        assert {"pipeline", "stage1", "stage2"} <= names


class TestManifest:
    def test_manifest_round_trip(self, rng, tmp_path):
        s0, s1 = make_pair(rng, 300, 300)
        config = small_config(block_rows=32, n=len(s1), sra_rows=4)
        result = CUDAlign(config, workdir=tmp_path).run(s0, s1)
        manifest = read_manifest(tmp_path / "manifest.json")
        assert manifest["version"] == 1
        assert manifest["result"]["best_score"] == result.best_score
        assert manifest["stage_wall_seconds"] == result.stage_wall_seconds()
        assert sorted(manifest["stages"]) == sorted(result.stages())
        assert manifest["sequences"]["s0"]["length"] == len(s0)
        assert len(manifest["sequences"]["s0"]["sha256"]) == 64
        assert manifest["metrics"] == result.metrics
        # Plain JSON round-trip: re-serialize losslessly.
        assert json.loads(json.dumps(manifest)) == manifest

    def test_no_workdir_no_manifest(self, rng):
        s0, s1 = make_pair(rng, 100, 100)
        config = small_config(block_rows=32, n=len(s1), sra_rows=2)
        result = CUDAlign(config).run(s0, s1, visualize=False)
        assert result.metrics is not None  # telemetry still collected
        assert result.spans


class TestWorkdirValidation:
    def test_file_as_workdir_raises_config_error(self, rng, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        s0, s1 = make_pair(rng, 100, 100)
        config = small_config(block_rows=32, n=len(s1), sra_rows=2)
        with pytest.raises(ConfigError, match="not writable"):
            CUDAlign(config, workdir=target).run(s0, s1)

    def test_workdir_created_if_missing(self, rng, tmp_path):
        workdir = tmp_path / "a" / "b"
        s0, s1 = make_pair(rng, 100, 100)
        config = small_config(block_rows=32, n=len(s1), sra_rows=2)
        CUDAlign(config, workdir=workdir).run(s0, s1, visualize=False)
        assert os.path.exists(workdir / "manifest.json")
