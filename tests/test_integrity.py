"""The integrity layer: artifact codec, deterministic fault injection,
degrade-don't-die recovery, and the fsck scan/repair cycle."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.core import CUDAlign, run_stage1, small_config
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.stage1 import ROWS_NS
from repro.errors import ConfigError, IntegrityError, StorageError
from repro.integrity import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    codec,
    corrupt_file,
    fsck_tree,
    inject,
    tamper_special_line,
)
from repro.service import (JobQueue, JobSpec, ResultCache, execute_job,
                           prepare_group, replay_journal)
from repro.storage.sra import SavedLine, SpecialLineStore

from tests.conftest import make_pair

ALL_KINDS = (codec.KIND_SPECIAL_LINE, codec.KIND_CHECKPOINT,
             codec.KIND_CACHE_ENTRY, codec.KIND_JOURNAL_RECORD,
             codec.KIND_BINARY_ALIGNMENT)


class TestBinaryFrame:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip_every_kind(self, kind):
        payload = bytes(range(256)) * 3
        kind_back, payload_back = codec.unframe(codec.frame(payload, kind),
                                                expect_kind=kind)
        assert kind_back == kind and payload_back == payload

    def test_empty_payload_round_trips(self):
        assert codec.unframe(codec.frame(b"", "checkpoint"))[1] == b""

    def test_truncated_header(self):
        with pytest.raises(IntegrityError, match="truncated"):
            codec.unframe(b"RPIA\x01")

    def test_truncated_payload(self):
        blob = codec.frame(b"x" * 100, "checkpoint")
        with pytest.raises(IntegrityError, match="truncated or padded"):
            codec.unframe(blob[:-10])

    def test_bad_magic(self):
        blob = b"NOPE" + codec.frame(b"x", "checkpoint")[4:]
        with pytest.raises(IntegrityError, match="bad magic"):
            codec.unframe(blob)

    def test_unsupported_version(self):
        blob = bytearray(codec.frame(b"x", "checkpoint"))
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(IntegrityError, match="version"):
            codec.unframe(bytes(blob))

    def test_kind_mismatch(self):
        blob = codec.frame(b"x", "checkpoint")
        with pytest.raises(IntegrityError, match="kind mismatch"):
            codec.unframe(blob, expect_kind="special-line")

    def test_flipped_payload_bit_caught_with_details(self):
        blob = bytearray(codec.frame(b"payload bytes", "checkpoint"))
        blob[-1] ^= 0x10
        with pytest.raises(IntegrityError) as excinfo:
            codec.unframe(bytes(blob), path="/some/file.bin")
        err = excinfo.value
        assert isinstance(err, StorageError)       # one catchable family
        assert err.path == "/some/file.bin"
        assert err.expected and err.actual and err.expected != err.actual

    def test_flipped_kind_byte_caught(self):
        # Regression: the digests must cover the kind bytes too — a flip
        # there used to verify clean (kind is only compared on demand).
        blob = bytearray(codec.frame(b"payload", "checkpoint"))
        blob[codec._HEADER.size] ^= 0x04        # first byte of the kind
        with pytest.raises(IntegrityError):
            codec.unframe(bytes(blob))

    def test_file_round_trip_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "artifact.bin"
        codec.write_artifact(path, b"\x00\x01\x02", codec.KIND_SPECIAL_LINE)
        assert codec.read_artifact(path, codec.KIND_SPECIAL_LINE) == \
            b"\x00\x01\x02"
        assert not list(tmp_path.glob("*.tmp"))


class TestSealedRecords:
    def test_round_trip(self):
        sealed = codec.seal_record({"event": "submitted", "job_id": "j1"})
        raw = json.dumps(sealed, sort_keys=True)
        assert codec.verify_record(raw) == {"event": "submitted",
                                            "job_id": "j1"}

    def test_tampered_value_caught(self):
        sealed = codec.seal_record({"event": "succeeded", "score": 10})
        sealed["score"] = 11
        with pytest.raises(IntegrityError, match="CRC mismatch"):
            codec.verify_record(json.dumps(sealed))

    def test_unsealed_line_rejected(self):
        with pytest.raises(IntegrityError, match="no checksum"):
            codec.verify_record('{"event": "submitted"}')

    def test_non_json_line_rejected(self):
        with pytest.raises(IntegrityError, match="not JSON"):
            codec.verify_record('{"event": "subm')

    def test_append_heals_torn_final_line(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(b'{"event": "torn prefix with no newline')
        codec.append_journal_record(journal, {"event": "next"})
        lines = journal.read_text().splitlines()
        assert len(lines) == 2
        assert codec.verify_record(lines[1])["event"] == "next"
        with pytest.raises(IntegrityError):
            codec.verify_record(lines[0])


class TestJsonEnvelope:
    def test_round_trip(self):
        text = codec.seal_json({"best_score": 42}, codec.KIND_CACHE_ENTRY)
        assert codec.open_json(
            text, expect_kind=codec.KIND_CACHE_ENTRY) == {"best_score": 42}

    def test_tampered_payload_caught(self):
        text = codec.seal_json({"best_score": 42}, codec.KIND_CACHE_ENTRY)
        with pytest.raises(IntegrityError, match="SHA-256 mismatch"):
            codec.open_json(text.replace("42", "43"))

    def test_plain_json_rejected(self):
        with pytest.raises(IntegrityError, match="no integrity envelope"):
            codec.open_json('{"best_score": 42}')

    def test_kind_mismatch(self):
        text = codec.seal_json({}, codec.KIND_CACHE_ENTRY)
        with pytest.raises(IntegrityError, match="kind mismatch"):
            codec.open_json(text, expect_kind=codec.KIND_CHECKPOINT)

    @pytest.mark.parametrize("payload", [
        {"best_score": 17},
        {"best_score": 4242, "alignment_length": 1000, "cached": False,
         "crosspoints": [[0, 0, 0, 0], [310, 297, 17, 1]]},
    ])
    def test_every_single_bit_flip_caught(self, payload):
        # Regression: flips in the "version" key or value used to verify
        # clean (53 of the 1560 flips of a small cache entry).
        blob = codec.seal_json(payload,
                               codec.KIND_CACHE_ENTRY).encode("utf-8")
        missed = []
        for bit in range(8 * len(blob)):
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            try:
                codec.open_json(bytes(damaged).decode("utf-8"),
                                expect_kind=codec.KIND_CACHE_ENTRY)
            except (IntegrityError, UnicodeDecodeError):
                continue
            missed.append(bit)
        assert not missed, f"{len(missed)} undetected flips, first {missed[:5]}"


class TestQuarantine:
    def test_preserves_and_serializes_collisions(self, tmp_path):
        for expect in ("8.bin", "8.bin.1", "8.bin.2"):
            path = tmp_path / "8.bin"
            path.write_bytes(b"damaged")
            dest = codec.quarantine_file(path)
            assert dest.endswith(expect)
            assert not path.exists()
        assert len(list((tmp_path / "quarantine").iterdir())) == 3

    def test_missing_file_is_none(self, tmp_path):
        assert codec.quarantine_file(tmp_path / "gone.bin") is None


class TestFaultPlan:
    def test_same_seed_same_damage(self, tmp_path):
        path = tmp_path / "a.bin"
        original = bytes(range(256)) * 4
        path.write_bytes(original)
        reads = []
        for _ in range(2):
            plan = FaultPlan(FaultSpec("*.bin", "bitflip"), seed=42)
            with inject(plan):
                reads.append(codec.read_bytes(path))
            assert [i.fault for i in plan.injections] == ["bitflip"]
        assert reads[0] == reads[1] != original

    def test_skip_and_times_window(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"clean data")
        plan = FaultPlan(FaultSpec("*.bin", "truncate", skip=1, times=1))
        with inject(plan):
            first = codec.read_bytes(path)
            second = codec.read_bytes(path)
            third = codec.read_bytes(path)
        assert first == third == b"clean data"
        assert second == b"clean"
        assert len(plan.injections) == 1

    def test_enospc_on_write(self, tmp_path):
        plan = FaultPlan(FaultSpec("*.bin", "enospc", op="write"))
        with inject(plan):
            with pytest.raises(OSError, match="no space"):
                codec.write_artifact(tmp_path / "a.bin", b"x",
                                     codec.KIND_SPECIAL_LINE)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("*.bin", "torn", op="read")   # torn is write-only
        with pytest.raises(ConfigError):
            FaultSpec("*.bin", "bitflip", op="move")

    def test_plans_do_not_leak(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"clean")
        with inject(FaultPlan(FaultSpec("*.bin", "bitflip"))):
            pass
        assert codec.read_bytes(path) == b"clean"

    def test_tamper_needs_an_in_memory_store(self, tmp_path):
        """A disk store holds no arrays: its lines are damaged through
        their log instead."""
        store = SpecialLineStore(10**6, directory=tmp_path)
        store.save("x", SavedLine(axis="row", position=8, lo=0,
                                  H=np.arange(6, dtype=np.int32),
                                  G=np.zeros(6, dtype=np.int32)))
        with pytest.raises(ConfigError, match="in-memory"):
            tamper_special_line(store, "x", 8)
        np.testing.assert_array_equal(store.load("x", 8).H, np.arange(6))


class TestJournalRecovery:
    def _submit_two(self, journal):
        queue = JobQueue(journal)
        first = queue.submit(JobSpec(catalog="162Kx172K"))
        second = queue.submit(JobSpec(catalog="162Kx172K"))
        for record in (first, second):
            queue.mark_running(record)
            queue.mark_succeeded(record, {"best_score": 9})
        return first, second

    def test_mid_journal_corruption_requeues_only_that_job(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        first, second = self._submit_two(journal)
        lines = journal.read_text().splitlines()
        # Flip a byte inside the *middle* of the journal: the line that
        # recorded the first job's completion.
        target = next(i for i, line in enumerate(lines)
                      if '"succeeded"' in line and first.job_id in line)
        lines[target] = lines[target].replace('"succeeded"', '"succeedeX"')
        journal.write_text("\n".join(lines) + "\n")

        replay = replay_journal(journal)
        assert replay.corrupt == 1
        queue = JobQueue.recover(journal)
        assert queue.corrupt_records == 1
        # The job whose completion record was damaged replays as pending
        # (it simply runs again); the other stays finished.
        assert queue.get(first.job_id).state == "pending"
        assert queue.get(second.job_id).state == "succeeded"

    def test_kill_mid_append_recovers(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal)
        record = queue.submit(JobSpec(catalog="162Kx172K"))
        plan = FaultPlan(
            FaultSpec("*journal.jsonl", "torn", op="append"), seed=7)
        with inject(plan):
            with pytest.raises(InjectedFault):
                queue.mark_running(record)
        recovered = JobQueue.recover(journal)
        assert recovered.corrupt_records == 1
        assert recovered.get(record.job_id).state == "pending"
        # The post-recovery append healed the torn tail: the journal
        # grows cleanly and replays with the same single damaged line.
        assert replay_journal(journal).corrupt == 1


def _reference_run(s0, s1, config, tmp_path, name):
    result = CUDAlign(config, workdir=tmp_path / name).run(s0, s1)
    assert result.alignment is not None
    return result


class TestDegradeDontDie:
    """The acceptance bar: injected corruption during a full run changes
    telemetry, never the alignment."""

    @pytest.fixture
    def pair(self, rng):
        s0, s1 = make_pair(rng, 300, 280)
        config = small_config(block_rows=32, n=len(s1), sra_rows=5,
                              checkpoint_every_rows=64)
        return s0, s1, config

    def test_bitflipped_special_line_same_alignment(self, pair, tmp_path):
        s0, s1, config = pair
        clean = _reference_run(s0, s1, config, tmp_path, "clean")
        assert clean.metrics.get("integrity.corruption_detected", 0) == 0

        plan = FaultPlan(
            FaultSpec("*/sra/stage1_rows.lines", "bitflip", op="read"),
            seed=11)
        with inject(plan):
            damaged = CUDAlign(config, workdir=tmp_path / "hurt").run(s0, s1)
        assert [i.fault for i in plan.injections] == ["bitflip"]
        assert damaged.metrics["integrity.corruption_detected"] >= 1
        assert damaged.metrics["integrity.recovered"] >= 1
        # Identical answer: the lost row only widened a partition.
        assert damaged.best_score == clean.best_score
        assert damaged.alignment.start == clean.alignment.start
        assert damaged.alignment.end == clean.alignment.end
        # The damaged line was preserved for post-mortem.
        quarantine = tmp_path / "hurt" / "sra" / "quarantine"
        assert list(quarantine.iterdir())

    def test_torn_final_append_resumes_to_same_bytes(self, pair, tmp_path):
        """A crash tearing Stage 1's last special-row append: the resume
        recovers every earlier row from the log, counts the torn one, cuts
        it off, re-flushes it — and aligns to the clean run's bytes."""
        s0, s1, config = pair
        clean = _reference_run(s0, s1, config, tmp_path, "clean")
        rows = clean.stage1.special_rows
        assert len(rows) >= 2

        workdir = tmp_path / "torn"
        plan = FaultPlan(FaultSpec("*.lines", "torn", op="append",
                                   skip=len(rows) - 1))
        with inject(plan), pytest.raises(InjectedFault):
            CUDAlign(config, workdir=workdir).run(s0, s1)
        assert [(i.op, i.fault) for i in plan.injections] == [
            ("append", "torn")]
        assert plan.injections[0].path.endswith("stage1_rows.lines")

        # What recovery finds, probed on a copy of the dead run's SRA.
        probe = tmp_path / "probe"
        shutil.copytree(workdir / "sra", probe)
        store = SpecialLineStore(config.sra_bytes, directory=probe,
                                 recover=True)
        assert store.positions(ROWS_NS) == list(rows[:-1])
        assert store.recovered_lines == len(rows) - 1
        assert store.corrupt_lines == 1
        assert list((probe / "quarantine").iterdir())

        resumed = CUDAlign(config, workdir=workdir).run(s0, s1)
        assert resumed.stage1.resumed_from_row > 0
        assert resumed.metrics["integrity.corruption_detected"] == 1
        assert resumed.stage1.special_rows == rows
        assert resumed.binary.encode() == clean.binary.encode()
        assert fsck_tree(workdir).clean

    def test_corrupt_checkpoint_falls_back_to_fresh_sweep(self, pair,
                                                          tmp_path):
        s0, s1, config = pair
        clean = _reference_run(s0, s1, config, tmp_path, "clean")

        workdir = tmp_path / "hurt"
        workdir.mkdir()
        ckpt = workdir / "stage1.ckpt"
        codec.write_artifact(ckpt, b"stale checkpoint bytes",
                             codec.KIND_CHECKPOINT)
        corrupt_file(ckpt, "bitflip", seed=2)
        with pytest.raises(IntegrityError):
            load_checkpoint(ckpt, len(s0), len(s1))

        damaged = CUDAlign(config, workdir=workdir).run(s0, s1)
        assert damaged.metrics["integrity.corruption_detected"] >= 1
        assert damaged.best_score == clean.best_score
        assert not ckpt.exists()                   # quarantined, not reused
        assert list((workdir / "quarantine").iterdir())


class _SweeperStub:
    i = 5

    def state_dict(self) -> dict:
        zeros = np.zeros(4, dtype=np.int64)
        return {"i": 5, "cells": 100, "H": zeros, "E": zeros, "F": zeros,
                "best": 7, "best_i": 1, "best_j": 2}


def _build_root(root):
    """A service-style tree containing every artifact class."""
    store = SpecialLineStore(10**6, directory=root / "sra")
    for position in (8, 16, 24):
        store.save("stage1/rows", SavedLine(
            axis="row", position=position, lo=0,
            H=np.arange(6, dtype=np.int32),
            G=np.zeros(6, dtype=np.int32)))
    save_checkpoint(root / "stage1.ckpt", _SweeperStub(), 30, 40)
    cache = ResultCache(root / "cache")
    cache.put("a" * 16, {"best_score": 1})
    cache.put("b" * 16, {"best_score": 2})
    queue = JobQueue(root / "journal.jsonl")
    record = queue.submit(JobSpec(catalog="162Kx172K"))
    queue.mark_running(record)
    queue.mark_succeeded(record, {"best_score": 3})
    return root


class TestFsck:
    def test_clean_tree_verifies_everything(self, tmp_path):
        report = fsck_tree(_build_root(tmp_path))
        assert report.clean
        # The SRA log + checkpoint + 2 cache entries + journal.
        assert report.scanned == 5
        assert report.verified == 5

    def test_detects_every_corruption_class(self, tmp_path):
        root = _build_root(tmp_path)
        log = root / "sra" / "stage1_rows.lines"
        corrupt_file(log, "bitflip")
        corrupt_file(root / "stage1.ckpt", "truncate")
        corrupt_file(root / "cache" / ("a" * 16 + ".json"), "truncate")
        journal = root / "journal.jsonl"
        journal.write_text(
            journal.read_text().replace('"succeeded"', '"succeedeX"'))

        report = fsck_tree(root)
        assert not report.clean
        problems = {f.problem for f in report.findings}
        assert problems == {"bad-frame", "bad-envelope", "corrupt-record"}
        # Truncating a framed checkpoint at 50% decapitates the magic-or-
        # not sniff only if the cut lands inside the header; either way it
        # must be flagged, as bad-frame or not-framed.
        flagged = {f.path for f in report.findings}
        assert str(root / "stage1.ckpt") in flagged
        # The flipped bit is flagged at the one log record it damaged.
        damaged = [f for f in report.findings
                   if f.path.startswith(f"{log}@")]
        assert len(damaged) == 1
        assert damaged[0].problem == "bad-frame"
        assert damaged[0].kind == codec.KIND_SPECIAL_LINE

    def test_repair_converges_to_clean(self, tmp_path):
        root = _build_root(tmp_path)
        corrupt_file(root / "sra" / "stage1_rows.lines", "bitflip")
        corrupt_file(root / "cache" / ("a" * 16 + ".json"), "garbage")
        journal = root / "journal.jsonl"
        journal.write_text(
            journal.read_text().replace('"succeeded"', '"succeedeX"'))

        first = fsck_tree(root, repair=True)
        assert first.repaired
        rescan = fsck_tree(root)
        assert rescan.clean, [f.to_json() for f in rescan.findings]
        # Nothing was deleted: the damage is preserved under quarantine.
        assert list((root / "sra" / "quarantine").iterdir())
        assert list((root / "cache" / "quarantine").iterdir())
        # The journal kept its valid records.
        replay = replay_journal(root / "journal.jsonl")
        assert replay.corrupt == 0
        assert len(replay.records) == 1
        # So did the log: the two lines the bit missed recover intact.
        store = SpecialLineStore(10**6, directory=root / "sra", recover=True)
        assert store.recovered_lines == 2
        assert store.corrupt_lines == 0
        for position in store.positions("stage1/rows"):
            np.testing.assert_array_equal(
                store.load("stage1/rows", position).H, np.arange(6))


# ------------------------------------------------------------- durability
class _FsyncSpy:
    """Records the file behind every ``os.fsync`` call, in call order,
    with the file's size at that moment.

    At each fsync of a checkpoint it also snapshots the SRA logs then on
    disk under ``sra_dir``, with their sizes: the lines that checkpoint
    resumes from.
    """

    def __init__(self, monkeypatch, sra_dir):
        self.fsyncs: list[tuple[str, int]] = []
        self.checkpoints: list[tuple[int, dict[str, int]]] = []
        self.sra_dir = sra_dir
        real = os.fsync

        def spy(fd):
            path = os.readlink(f"/proc/self/fd/{fd}")
            if path.endswith(".ckpt.tmp"):
                self.checkpoints.append((len(self.fsyncs), self.logs()))
            self.fsyncs.append((path, os.fstat(fd).st_size))
            real(fd)

        monkeypatch.setattr(os, "fsync", spy)

    @property
    def paths(self) -> list[str]:
        return [path for path, _ in self.fsyncs]

    def logs(self) -> dict[str, int]:
        return {os.path.realpath(os.path.join(top, name)):
                os.path.getsize(os.path.join(top, name))
                for top, _, names in os.walk(self.sra_dir)
                for name in names if name.endswith(".lines")}

    def log_fsyncs(self) -> list[tuple[str, int]]:
        return [(p, size) for p, size in self.fsyncs if p.endswith(".lines")]


class _Killed(RuntimeError):
    pass


def _kill_halfway(stage, fraction):
    if fraction >= 0.5:
        raise _Killed(stage)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="the fsync spy names an fd through /proc")
class TestDurabilityContract:
    """fsync follows the recovery that reads the bytes back: a special
    line becomes durable at the next checkpoint of its run, before that
    checkpoint's own write, and nothing else the pipeline or the service
    writes for its own use is fsync'd."""

    @pytest.fixture
    def pair(self, rng):
        s0, s1 = make_pair(rng, 300, 280)
        return s0, s1, small_config(block_rows=32, n=len(s1), sra_rows=5)

    def _stage1(self, pair, tmp_path, *, recover=False, progress=None):
        s0, s1, config = pair
        sra = SpecialLineStore(config.sra_bytes, directory=tmp_path / "sra",
                               recover=recover)
        return sra, run_stage1(s0, s1, config, sra,
                               checkpoint_path=str(tmp_path / "stage1.ckpt"),
                               checkpoint_every_rows=16, progress=progress)

    def test_lines_durable_before_each_checkpoint(self, pair, tmp_path,
                                                  monkeypatch):
        spy = _FsyncSpy(monkeypatch, tmp_path / "sra")
        self._stage1(pair, tmp_path)
        assert spy.checkpoints and spy.checkpoints[-1][1]
        for before, logs in spy.checkpoints:
            # Each log was durable, up to its length, before the
            # checkpoint's own fsync.
            synced = dict(spy.fsyncs[:before])
            for log, size in logs.items():
                assert synced.get(log) == size
        # Exactly those: one log fsync per checkpoint that follows new
        # records, none for records saved after the last checkpoint.
        (log,) = spy.checkpoints[-1][1]
        at_checkpoints = [logs.get(log, 0) for _, logs in spy.checkpoints]
        grown = [size for prev, size in zip([0] + at_checkpoints,
                                            at_checkpoints) if size > prev]
        assert spy.log_fsyncs() == [(log, size) for size in grown]

    def test_recovered_lines_durable_before_next_checkpoint(
            self, pair, tmp_path, monkeypatch):
        s0, s1, config = pair
        dead = SpecialLineStore(config.sra_bytes, directory=tmp_path / "sra")
        with pytest.raises(_Killed):
            run_stage1(s0, s1, config, dead,
                       checkpoint_path=str(tmp_path / "stage1.ckpt"),
                       checkpoint_every_rows=16, progress=_kill_halfway)
        spy = _FsyncSpy(monkeypatch, tmp_path / "sra")
        recovered = spy.logs()
        sra, resumed = self._stage1(pair, tmp_path, recover=True)
        assert resumed.resumed_from_row > 0
        assert sra.recovered_lines == len(dead.positions(ROWS_NS)) > 0
        assert spy.checkpoints
        synced = dict(spy.fsyncs[:spy.checkpoints[0][0]])
        assert recovered
        for log, size in recovered.items():
            assert synced.get(log, -1) >= size

    def test_pair_run_without_checkpoint_fsyncs_nothing(self, pair, tmp_path,
                                                        monkeypatch):
        s0, s1, config = pair
        spy = _FsyncSpy(monkeypatch, tmp_path / "wd" / "sra")
        CUDAlign(config, workdir=tmp_path / "wd").run(s0, s1)
        assert spy.logs()
        assert spy.fsyncs == []

    def test_grouped_job_fsyncs_nothing(self, tmp_path, monkeypatch):
        specs = [JobSpec(catalog="162Kx172K", scale=8192, seed=seed,
                         block_rows=32) for seed in (0, 1)]
        spy = _FsyncSpy(monkeypatch, tmp_path)
        sweepers, _, pairs = prepare_group(specs)
        for spec in specs:
            execute_job(spec, str(tmp_path / spec.job_id), 1,
                        stage1_sweeper=sweepers[spec.job_id],
                        sequences=pairs[spec.job_id])
        assert spy.logs()
        assert spy.fsyncs == []

    def test_sync_skips_a_vanished_line(self, tmp_path, monkeypatch):
        store = SpecialLineStore(10**6, directory=tmp_path)
        for namespace in ("x", "y"):
            store.save(namespace, SavedLine(
                axis="row", position=8, lo=0,
                H=np.arange(6, dtype=np.int32),
                G=np.zeros(6, dtype=np.int32)))
        (tmp_path / "x.lines").unlink()
        spy = _FsyncSpy(monkeypatch, tmp_path)
        store.sync()        # a lost line is caught at load, not here
        assert spy.paths == [os.path.realpath(tmp_path / "y.lines")]
        store.sync()
        assert len(spy.paths) == 1

    def test_cache_put_fsyncs_nothing(self, tmp_path, monkeypatch):
        spy = _FsyncSpy(monkeypatch, tmp_path)
        ResultCache(tmp_path).put("k" * 16, {"best_score": 17})
        assert spy.paths == []
