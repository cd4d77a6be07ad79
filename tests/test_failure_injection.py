"""Failure injection: corrupted storage and inconsistent inputs must be
caught — by the artifact checksums when the damage is on disk, and by
the pipeline's invariant checks when it is past them — and must degrade
to recomputation, never crash or silently mis-align."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.constants import TYPE_MATCH
from repro.errors import (IntegrityError, MatchingError, PartitionError,
                          StorageError)
from repro.core import (
    Crosspoint,
    CrosspointChain,
    run_stage1,
    run_stage2,
    run_stage3,
    run_stage5,
    small_config,
)
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.stage1 import ROWS_NS
from repro.integrity import corrupt_file, fsck_tree, tamper_special_line
from repro.service import (JobQueue, JobSpec, ResultCache, JournalReplay,
                           replay_journal)
from repro.storage.sra import SavedLine, SpecialLineStore

from tests.conftest import make_pair


@pytest.fixture
def setup(rng):
    s0, s1 = make_pair(rng, 300, 280)
    config = small_config(block_rows=32, n=len(s1), sra_rows=5)
    sra = SpecialLineStore(config.sra_bytes)
    sca = SpecialLineStore(config.sca_bytes)
    stage1 = run_stage1(s0, s1, config, sra)
    return s0, s1, config, sra, sca, stage1


class TestCorruptedSRA:
    """Damage *past* the storage checksums (device memory, the bus): the
    codec cannot see it, so the goal-match invariants must."""

    def test_corrupted_special_row_never_mis_scores(self, setup):
        # A corrupted row either trips the matching invariant or — when an
        # equally-scoring alignment start exists inside the band — Stage 2
        # legitimately short-circuits; it must never emit a chain that
        # fails to bracket the true best score.
        s0, s1, config, sra, sca, stage1 = setup
        rows = sra.positions(ROWS_NS)
        assert rows
        tamper_special_line(sra, ROWS_NS, rows[len(rows) // 2])
        try:
            stage2 = run_stage2(s0, s1, config, sra, sca, stage1)
        except MatchingError:
            return
        chain = CrosspointChain(stage2.crosspoints)
        assert chain.end.score == stage1.best_score
        assert chain.start.score == 0

    def test_corrupted_special_column_detected(self, setup):
        s0, s1, config, sra, sca, stage1 = setup
        stage2 = run_stage2(s0, s1, config, sra, sca, stage1)
        bands = [b for b in stage2.bands if b.column_positions]
        if not bands:
            pytest.skip("no special columns saved for this input")
        band = bands[0]
        tamper_special_line(sca, band.namespace, band.column_positions[0])
        with pytest.raises(MatchingError):
            run_stage3(s0, s1, config, sca, stage2)


class TestInconsistentChains:
    def test_wrong_best_score_detected(self, setup):
        s0, s1, config, sra, sca, stage1 = setup
        bogus = dataclasses.replace(
            stage1, best_score=stage1.best_score + 1,
            end_point=Crosspoint(stage1.end_point.i, stage1.end_point.j,
                                 stage1.best_score + 1, TYPE_MATCH))
        with pytest.raises(MatchingError):
            run_stage2(s0, s1, config, sra, sca, bogus)

    def test_stage5_rejects_fabricated_partition_scores(self, setup):
        s0, s1, config, *_ = setup
        chain = CrosspointChain([
            Crosspoint(0, 0, 0),
            Crosspoint(10, 10, 99),   # fabricated score
            Crosspoint(20, 20, 120),
        ])
        small = dataclasses.replace(config, max_partition_size=32)
        with pytest.raises(PartitionError):
            run_stage5(s0, s1, small, chain)


def _saved_line() -> SavedLine:
    return SavedLine(axis="row", position=8, lo=0,
                     H=np.arange(6, dtype=np.int32),
                     G=np.zeros(6, dtype=np.int32))


class TestStorageFaults:
    def test_disk_file_deletion_detected(self, tmp_path, rng):
        store = SpecialLineStore(10**6, directory=tmp_path)
        store.save("x", _saved_line())
        (tmp_path / "x.lines").unlink()
        with pytest.raises(IntegrityError) as excinfo:
            store.load("x", 8)
        assert excinfo.value.kind == "special-line"

    def test_budget_never_exceeded_under_pressure(self, rng):
        s0, s1 = make_pair(rng, 400, 400)
        # A budget holding exactly one row: the flush law must adapt.
        config = small_config(block_rows=32, n=len(s1), sra_rows=1)
        sra = SpecialLineStore(config.sra_bytes)
        run_stage1(s0, s1, config, sra)
        assert sra.bytes_used <= config.sra_bytes
        assert len(sra.positions(ROWS_NS)) <= 1


def _stage1_parked(s0, s1, config, sra_dir, ckpt) -> None:
    """Child-process body: a checkpointing Stage 1 that parks in its
    ``progress`` callback once its first checkpoint exists, so the
    parent's SIGKILL always lands mid-sweep."""

    def park(stage, fraction) -> None:
        while os.path.exists(ckpt):
            time.sleep(3600)

    sra = SpecialLineStore(config.sra_bytes, directory=sra_dir)
    run_stage1(s0, s1, config, sra, checkpoint_path=ckpt,
               checkpoint_every_rows=16, progress=park)


class TestStage1Kill:
    """SIGKILL in the middle of Stage 1: the checkpoint and the durable
    SRA must bring a resumed sweep to the exact result of an
    uninterrupted run, special rows included."""

    def test_sigkill_mid_sweep_resumes_bit_identical(self, tmp_path, rng):
        s0, s1 = make_pair(rng, 300, 280)
        config = small_config(block_rows=32, n=len(s1), sra_rows=5)

        ref_sra = SpecialLineStore(config.sra_bytes)
        reference = run_stage1(s0, s1, config, ref_sra)

        sra_dir = str(tmp_path / "sra")
        ckpt = str(tmp_path / "stage1.ckpt")
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(target=_stage1_parked,
                             args=(s0, s1, config, sra_dir, ckpt))
        victim.start()
        try:
            deadline = time.monotonic() + 60
            while victim.is_alive() and not os.path.exists(ckpt):
                if time.monotonic() > deadline:  # pragma: no cover
                    pytest.fail("no checkpoint appeared within 60s")
                time.sleep(0.002)
            assert victim.is_alive(), "stage 1 died before checkpointing"
        finally:
            victim.kill()
            victim.join(30)
        assert not victim.is_alive()
        assert victim.exitcode == -signal.SIGKILL

        sra = SpecialLineStore(config.sra_bytes, directory=sra_dir,
                               recover=True)
        resumed = run_stage1(s0, s1, config, sra, checkpoint_path=ckpt,
                             checkpoint_every_rows=16)
        assert resumed.resumed_from_row > 0
        assert resumed.best_score == reference.best_score
        assert resumed.end_point == reference.end_point
        assert resumed.special_rows == reference.special_rows
        assert reference.special_rows
        for row in reference.special_rows:
            want, got = ref_sra.load(ROWS_NS, row), sra.load(ROWS_NS, row)
            np.testing.assert_array_equal(got.H, want.H)
            np.testing.assert_array_equal(got.G, want.G)


def _strike(path, fault: str) -> None:
    """One cell of the chaos matrix: damage an on-disk artifact."""
    corrupt_file(path, "delete" if fault == "missing" else fault, seed=3)


class _SweeperStub:
    """The minimal state_dict surface save_checkpoint needs."""

    i = 7

    def state_dict(self) -> dict:
        zeros = np.zeros(5, dtype=np.int64)
        return {"i": 7, "cells": 280, "H": zeros, "E": zeros, "F": zeros,
                "best": 12, "best_i": 3, "best_j": 4}


@pytest.mark.parametrize("fault", ["bitflip", "truncate", "missing"])
class TestChaosMatrix:
    """fault x artifact class: every cell detects the damage through the
    integrity codec and degrades to a recomputable state."""

    def test_sra_line(self, tmp_path, fault):
        store = SpecialLineStore(10**6, directory=tmp_path)
        store.save("x", _saved_line())
        _strike(tmp_path / "x.lines", fault)
        with pytest.raises(IntegrityError):
            store.load("x", 8)
        # Degrade: quarantine deregisters the line and frees its budget;
        # consumers recompute across the gap.
        store.quarantine("x", 8)
        assert store.positions("x") == []
        assert store.corrupt_lines == 1
        assert store.bytes_used == 0
        # The damaged bytes left the log (preserved under quarantine/):
        # neither a later recovery nor fsck counts them again.
        if fault != "missing":
            assert list((tmp_path / "quarantine").iterdir())
        assert fsck_tree(tmp_path).clean
        again = SpecialLineStore(10**6, directory=tmp_path, recover=True)
        assert (again.recovered_lines, again.corrupt_lines) == (0, 0)

    def test_checkpoint(self, tmp_path, fault):
        path = tmp_path / "stage1.ckpt"
        save_checkpoint(path, _SweeperStub(), 300, 280)
        _strike(path, fault)
        if fault == "missing":
            # No checkpoint at all: Stage 1 starts a fresh sweep.
            assert load_checkpoint(path, 300, 280) is None
        else:
            with pytest.raises(IntegrityError) as excinfo:
                load_checkpoint(path, 300, 280)
            assert excinfo.value.kind == "checkpoint"

    def test_cache_entry(self, tmp_path, fault):
        cache = ResultCache(tmp_path)
        key = "k" * 16
        cache.put(key, {"best_score": 17})
        _strike(tmp_path / f"{key}.json", fault)
        assert cache.get(key) is None          # a miss, never a crash
        assert cache.misses == 1
        if fault != "missing":
            assert cache.corrupt == 1
            assert list((tmp_path / "quarantine").iterdir())
        # The recompute's rewrite repairs the cache in place.
        cache.put(key, {"best_score": 17})
        assert cache.get(key) == {"best_score": 17}

    def test_journal(self, tmp_path, fault):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        for _ in range(3):
            queue.submit(JobSpec(catalog="162Kx172K"))
        _strike(journal, fault)
        replay = replay_journal(journal)
        if fault == "missing":
            assert replay == JournalReplay([], [], 0)   # fresh queue
        else:
            assert replay.corrupt >= 1
            assert len(replay.records) < 3
        # Recovery still stands up a working queue; surviving jobs replay
        # as pending and the lost ones are simply resubmitted.
        recovered = JobQueue.recover(journal)
        assert recovered.corrupt_records == replay.corrupt
        assert all(r.state == "pending" for r in recovered.records())


# ---------------------------------------------------------------- gateway
def _serve_proc(root, port_file, *, resume=False, extra=()):
    """Start `repro serve` in its own session; returns the Popen."""
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "repro.cli", "serve", "--root", str(root),
            "--port", "0", "--port-file", str(port_file), "--workers", "1"]
    if resume:
        argv.append("--resume")
    argv.extend(extra)
    return subprocess.Popen(argv, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _wait_port(port_file, proc, timeout=60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:  # pragma: no cover
            pytest.fail(f"serve process died (rc={proc.returncode})")
        if os.path.exists(port_file):
            with open(port_file, encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        time.sleep(0.02)
    pytest.fail("gateway never wrote its port file")  # pragma: no cover


def _http(port, method, path, payload=None, tenant=None):
    import http.client
    import json

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Repro-Tenant"] = tenant
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, (json.loads(data) if data else None)


class TestGatewayKill:
    """SIGKILL the serving process mid-run: every job the gateway
    accepted (201 = journaled) must survive a `serve --resume` restart
    and run to completion — the HTTP front door adds no new loss mode
    on top of the journal's crash consistency."""

    def test_sigkill_serve_loses_no_accepted_job(self, tmp_path):
        root = tmp_path / "gw"
        port_file = tmp_path / "port"
        victim = _serve_proc(root, port_file)
        accepted = []
        try:
            port = _wait_port(port_file, victim)
            # One long job to pin the worker busy, then quick ones that
            # queue behind it — killed while running + killed while
            # pending are both exercised.
            status, _ = _http(port, "POST", "/v1/jobs",
                              {"job_id": "long", "catalog": "543Kx536K",
                               "scale": 65536, "block_rows": 32},
                              tenant="alice")
            assert status == 201
            accepted.append("long")
            for seed in range(3):
                status, _ = _http(port, "POST", "/v1/jobs",
                                  {"job_id": f"quick-{seed}",
                                   "catalog": "162Kx172K", "scale": 8192,
                                   "seed": seed, "block_rows": 32},
                                  tenant="bob")
                assert status == 201
                accepted.append(f"quick-{seed}")
            # Wait for the long job to actually be dispatched so the kill
            # lands mid-attempt (exercising RUNNING -> recovered).
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status, snapshot = _http(port, "GET", "/v1/jobs/long")
                if snapshot["state"] == "running":
                    break
                time.sleep(0.02)
            assert snapshot["state"] == "running"
        finally:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait()

        # Restart over the same root: the journal replays, interrupted
        # work is re-queued, and everything accepted runs to completion.
        port_file2 = tmp_path / "port2"
        healer = _serve_proc(root, port_file2, resume=True)
        try:
            port = _wait_port(port_file2, healer)
            deadline = time.monotonic() + 300
            states = {}
            while time.monotonic() < deadline:
                _, listing = _http(port, "GET", "/v1/jobs")
                states = {j["job_id"]: j["state"] for j in listing["jobs"]}
                if all(states.get(job_id) in ("succeeded", "cached")
                       for job_id in accepted):
                    break
                time.sleep(0.1)
            for job_id in accepted:
                assert states.get(job_id) in ("succeeded", "cached"), states
                status, body = _http(port, "GET",
                                     f"/v1/jobs/{job_id}/result")
                assert status == 200
                assert body["result"]["best_score"] > 0
        finally:
            os.killpg(healer.pid, signal.SIGTERM)
            assert healer.wait(timeout=30) == 0    # clean shutdown

        # The journal records the demotion of the interrupted attempt.
        _, events, _ = replay_journal(root / "journal.jsonl")
        assert any(e["event"] == "recovered" for e in events)

    def test_worker_signals_stay_with_the_worker(self, tmp_path):
        """`repro serve` forks workers from a process whose event loop
        owns SIGTERM.  The SIGTERM that cancels a running job, or that
        the stall detector sends a hung one, must end that worker only:
        the cancel returns, the stalled job retries, and the gateway
        keeps serving until its own SIGTERM."""
        import subprocess

        port_file = tmp_path / "port"
        proc = _serve_proc(tmp_path / "gw", port_file,
                           extra=("--stall-seconds", "1"))
        try:
            port = _wait_port(port_file, proc)
            for job_id in ("cancelled", "stalled"):    # one worker: FIFO
                status, _ = _http(port, "POST", "/v1/jobs",
                                  {"job_id": job_id, "catalog": "162Kx172K",
                                   "scale": 8192, "block_rows": 32,
                                   "inject_hang_row": 0}, tenant="t")
                assert status == 201
            deadline = time.monotonic() + 60
            while (_http(port, "GET", "/v1/jobs/cancelled")[1]["state"]
                   != "running" and time.monotonic() < deadline):
                time.sleep(0.02)
            status, _ = _http(port, "DELETE", "/v1/jobs/cancelled",
                              tenant="t")
            assert status == 200
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                _, snapshot = _http(port, "GET", "/v1/jobs/stalled")
                if snapshot["state"] == "succeeded":
                    break
                time.sleep(0.05)
            assert snapshot["state"] == "succeeded"
            assert snapshot["crashes"] == 1          # the stall kill
            assert proc.poll() is None
        finally:
            os.killpg(proc.pid, signal.SIGTERM)
            try:
                code = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        assert code == 0                             # clean shutdown
