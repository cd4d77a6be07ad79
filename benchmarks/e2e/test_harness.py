"""Self-tests of the end-to-end benchmark.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest benchmarks/e2e``.  The slow tests run
the real benchmark with ``--quick`` in subprocesses (about 30 s in
all); the rest check the breakdown arithmetic and the ledger validator.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import ledger
from benchmarks.e2e.tracing import Span, exclusive_seconds, nest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
OUT = ROOT / "benchmarks" / "out" / "e2e"
CONTRACT = ledger.load_contract()

PIPELINE = {"core.pipeline", "core.stage1", "core.stage2", "core.stage3",
            "core.stage5", "align.sweep", "storage.sra_save",
            "storage.sra_load", "sequences.build"}
#: Span names each workload's traced run must record (seed 0, --quick):
#: a renamed wrapped call site or pipeline span then fails here instead
#: of zeroing its layer.
EXPECTED_SPANS = {
    "huge-pair": PIPELINE | {"core.run", "core.stage4", "align.mm_midpoint",
                             "align.full_matrix"},
    "short-hit": PIPELINE | {"core.run", "align.full_matrix"},
    "batch-small": PIPELINE | {"service.submit"},
    "gateway-open": PIPELINE | {"storage.checkpoint", "gateway.post",
                                "gateway.job", "gateway.result_get"},
}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(RUN), "--quick", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def assert_complete(result: dict, kind: str) -> None:
    for workload in CONTRACT["workloads"]:
        for metric, unit in CONTRACT[kind].items():
            entry = result["metrics"].get(f"{workload}/{metric}")
            assert entry is not None, f"{workload} did not emit {metric}"
            assert entry["unit"] == unit, (workload, metric, entry)
            assert math.isfinite(entry["value"]), (workload, metric, entry)


@pytest.fixture(scope="module")
def untraced():
    return bench()


@pytest.fixture(scope="module")
def traced():
    return bench("--trace")


def test_untraced_run_emits_every_end_to_end_metric(untraced):
    code, result = untraced
    assert code == 0 and result["correct"], result
    assert_complete(result, "end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_emits_every_layer_metric_and_records_every_span(traced):
    code, result = traced
    assert code == 0 and result["correct"], result
    assert_complete(result, "per_layer")
    for workload, expected in EXPECTED_SPANS.items():
        details = json.loads((OUT / f"{workload}.trace.json").read_text())
        recorded = set(details["span_counts"])
        assert expected <= recorded, (workload, sorted(expected - recorded))
        spans = (OUT / f"{workload}.trace.jsonl").read_text().splitlines()
        assert json.loads(spans[0])["spans"] == len(spans) - 1
    # The gateway layer is absent everywhere but its own workload.
    metrics = result["metrics"]
    for workload in ("huge-pair", "short-hit", "batch-small"):
        assert metrics[f"{workload}/gateway.post_p50_s"]["value"] == 0.0
    assert metrics["gateway-open/gateway.post_p50_s"]["value"] > 0.0


@pytest.mark.parametrize("workload, tamper", [("short-hit", "score"),
                                              ("batch-small", "score"),
                                              ("gateway-open", "body")])
def test_tampered_expectation_fails_the_run(workload, tamper):
    code, result = bench("--workload", workload, "--tamper", tamper)
    assert code != 0
    assert result is not None and result["correct"] is False


def test_run_without_the_source_tree_fails(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _span(span_id, name, start, end, trace="t"):
    return Span(span_id, name, start, end, trace)


def test_exclusive_seconds_gives_self_times_that_sum_to_the_wall():
    root = _span(1, "core.run", 0.0, 10.0)
    pipeline = _span(2, "core.pipeline", 0.5, 9.5)
    stage = _span(3, "core.stage4", 1.0, 9.0)
    midpoint = _span(4, "align.mm_midpoint", 2.0, 7.0)
    sweep = _span(5, "align.sweep", 3.0, 5.0)
    sibling = _span(6, "align.sweep", 7.0, 8.0)
    other_trace = _span(7, "align.sweep", 4.0, 4.5, trace="u")
    spans = [sibling, sweep, root, midpoint, stage, pipeline, other_trace]
    inside = nest(root, spans)
    assert [s.id for s in inside] == [2, 3, 4, 5, 6]
    assert sweep.parent is midpoint and sibling.parent is stage
    rows = exclusive_seconds(root, inside)
    assert rows == pytest.approx({"unattributed": 2.0, "core.stage4": 2.0,
                                  "align.mm_midpoint": 3.0,
                                  "align.sweep": 3.0})
    assert sum(rows.values()) == pytest.approx(root.seconds)


def test_nest_rejects_spans_that_overlap_without_nesting():
    root = _span(1, "core.run", 0.0, 10.0)
    with pytest.raises(ValueError):
        nest(root, [_span(2, "align.sweep", 1.0, 5.0),
                    _span(3, "align.sweep", 4.0, 6.0)])


def test_promoted_ledger_validates():
    ledger.validate(json.loads(ledger.LEDGER.read_text()), CONTRACT)


@pytest.mark.parametrize("mutate", [
    lambda l: l["workloads"].setdefault("unknown-workload", {}),
    lambda l: l["workloads"]["huge-pair"]["end_to_end"]["metrics"]
    .setdefault("made_up_s", {"value": 1.0, "unit": "s"}),
    lambda l: l["workloads"]["huge-pair"]["end_to_end"]["metrics"]
    ["setup_s"].update(unit="ms"),
    lambda l: l["host"].pop("commit"),
])
def test_validate_rejects_drift(mutate):
    drifted = json.loads(ledger.LEDGER.read_text())
    mutate(drifted)
    with pytest.raises(ValueError):
        ledger.validate(drifted, CONTRACT)
