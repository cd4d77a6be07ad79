"""Tests for the batch alignment job service (repro.service)."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.align.scoring import PAPER_SCHEME, ScoringScheme
from repro.errors import ConfigError
from repro.integrity import codec
from repro.sequences import homologous_pair, write_fasta
from repro.sequences.catalog import CatalogEntry
from repro.service import (
    AlignmentService,
    FailureInjector,
    InjectedFailure,
    JOURNAL_NAME,
    JobQueue,
    JobSpec,
    JobState,
    ResultCache,
    SupervisorConfig,
    WorkerPool,
    cache_key,
    config_fingerprint,
    execute_job,
    load_specs,
    replay_journal,
    worker,
)
from repro.service.job import JobRecord


@pytest.fixture
def fasta_pair(tmp_path):
    rng = np.random.default_rng(7)
    s0, s1 = homologous_pair(600, rng, names=("jobA", "jobB"))
    p0 = tmp_path / "a.fasta"
    p1 = tmp_path / "b.fasta"
    write_fasta(p0, s0)
    write_fasta(p1, s1)
    return str(p0), str(p1)


# --------------------------------------------------------------- JobSpec
class TestJobSpec:
    def test_requires_exactly_one_input_form(self, fasta_pair):
        p0, p1 = fasta_pair
        with pytest.raises(ConfigError):
            JobSpec()  # neither paths nor catalog
        with pytest.raises(ConfigError):
            JobSpec(seq0=p0)  # seq1 missing
        with pytest.raises(ConfigError):
            JobSpec(seq0=p0, seq1=p1, catalog="162Kx172K")  # both forms
        JobSpec(seq0=p0, seq1=p1)
        JobSpec(catalog="162Kx172K")

    def test_envelope_validation(self, fasta_pair):
        p0, p1 = fasta_pair
        with pytest.raises(ConfigError):
            JobSpec(seq0=p0, seq1=p1, max_retries=-1)
        with pytest.raises(ConfigError):
            JobSpec(seq0=p0, seq1=p1, deadline_seconds=0)

    def test_pipeline_knobs_validated_at_submit_time(self, fasta_pair):
        p0, p1 = fasta_pair
        # PipelineConfig owns the rule; the spec probes it on construction.
        with pytest.raises(ConfigError):
            JobSpec(seq0=p0, seq1=p1, checkpoint_every_rows=0)
        with pytest.raises(ConfigError):
            JobSpec(seq0=p0, seq1=p1, block_rows=0)

    def test_auto_ids_unique(self, fasta_pair):
        p0, p1 = fasta_pair
        a = JobSpec(seq0=p0, seq1=p1)
        b = JobSpec(seq0=p0, seq1=p1)
        assert a.job_id != b.job_id
        assert a.job_id.startswith("job-")

    def test_json_round_trip(self, fasta_pair):
        p0, p1 = fasta_pair
        spec = JobSpec(job_id="rt", seq0=p0, seq1=p1,
                       scheme=ScoringScheme(2, -1, 3, 1), priority=4,
                       deadline_seconds=9.5, inject_failure_row=100)
        clone = JobSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.scheme == ScoringScheme(2, -1, 3, 1)

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown job spec"):
            JobSpec.from_json({"catalog": "162Kx172K", "bogus": 1})


# ----------------------------------------------------------------- cache
class TestCache:
    def test_fingerprint_ignores_execution_knobs(self):
        base = JobSpec(catalog="162Kx172K")
        uncheckpointed = JobSpec(catalog="162Kx172K",
                                 checkpoint_every_rows=None)
        coarser = JobSpec(catalog="162Kx172K", block_rows=32)
        n = 4096
        assert (config_fingerprint(base.pipeline_config(n))
                == config_fingerprint(uncheckpointed.pipeline_config(n)))
        assert (config_fingerprint(base.pipeline_config(n))
                != config_fingerprint(coarser.pipeline_config(n)))

    def test_key_depends_on_scheme_and_order(self):
        fp = "f" * 64
        base = cache_key("d0", "d1", PAPER_SCHEME, fp)
        assert cache_key("d0", "d1", PAPER_SCHEME, fp) == base
        assert cache_key("d1", "d0", PAPER_SCHEME, fp) != base
        assert cache_key("d0", "d1", ScoringScheme(2, -1, 3, 1), fp) != base

    def test_put_get_persists_across_instances(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"best_score": 42})
        assert cache.get("k" * 64) == {"best_score": 42}
        reopened = ResultCache(tmp_path / "cache")
        assert reopened.get("k" * 64)["best_score"] == 42
        assert len(reopened) == 1

    def test_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.get("a" * 64)
        cache.put("a" * 64, {"x": 1})
        cache.get("a" * 64)
        stats = cache.stats()
        assert stats == {"entries": 1, "hits": 1, "misses": 1,
                         "corrupt": 0, "hit_rate": 0.5}


# ----------------------------------------------------------------- queue
class TestJobQueue:
    def test_priority_then_fifo(self, tmp_path):
        queue = JobQueue(tmp_path / JOURNAL_NAME)
        low = queue.submit(JobSpec(job_id="low", catalog="162Kx172K"))
        hi1 = queue.submit(JobSpec(job_id="hi1", catalog="162Kx172K",
                                   priority=5))
        queue.submit(JobSpec(job_id="hi2", catalog="162Kx172K", priority=5))
        assert queue.next_pending() is hi1
        assert queue.next_pending(skip={"hi1", "hi2"}) is low
        queue.mark_running(hi1)
        assert queue.next_pending().job_id == "hi2"

    def test_duplicate_id_rejected(self, tmp_path):
        queue = JobQueue(tmp_path / JOURNAL_NAME)
        queue.submit(JobSpec(job_id="x", catalog="162Kx172K"))
        with pytest.raises(ConfigError):
            queue.submit(JobSpec(job_id="x", catalog="162Kx172K"))

    def test_journal_replay_reconstructs_states(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        queue = JobQueue(path)
        ok = queue.submit(JobSpec(job_id="ok", catalog="162Kx172K"))
        bad = queue.submit(JobSpec(job_id="bad", catalog="162Kx172K",
                                   max_retries=0))
        queue.mark_running(ok)
        queue.mark_succeeded(ok, {"best_score": 7, "wall_seconds": 0.1})
        queue.mark_running(bad)
        queue.mark_failed(bad, "boom")
        records, events, corrupt = replay_journal(path)
        assert corrupt == 0
        by_id = {r.job_id: r for r in records}
        assert by_id["ok"].state == JobState.SUCCEEDED
        assert by_id["ok"].result["best_score"] == 7
        assert by_id["bad"].state == JobState.FAILED
        assert by_id["bad"].error == "boom"
        assert [e["event"] for e in events][:2] == ["submitted", "submitted"]

    def test_recover_requeues_interrupted_without_charging_retries(
            self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        queue = JobQueue(path)
        mid = queue.submit(JobSpec(job_id="mid", catalog="162Kx172K"))
        queue.mark_running(mid)          # service "dies" here
        # Torn final line from the killed process must not break replay.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "succ')
        recovered = JobQueue.recover(path)
        record = recovered.get("mid")
        assert record.state == JobState.PENDING
        assert record.failures == 0      # interrupted, not failed
        assert recovered.corrupt_records == 1    # the torn line
        _, events, _ = replay_journal(path)
        assert events[-1]["event"] == "recovered"

    def test_retired_spec_fields_still_replay(self, tmp_path):
        # Every spec an older version journalled carries fields this one
        # retired (``kernel``, ``executor``, ``workers``).  Replay and
        # recovery drop them instead of refusing the root; a spec file or
        # POST body naming one is still an unknown field.
        path = tmp_path / JOURNAL_NAME
        old = JobSpec(job_id="old", catalog="162Kx172K").to_json()
        old.update(kernel="rowscan", executor="serial", workers=1)
        codec.append_journal_record(path, {
            "event": "submitted", "job_id": "old", "time": 1.0,
            "spec": old, "priority": 0})
        codec.append_journal_record(path, {
            "event": "started", "job_id": "old", "time": 2.0, "attempt": 1})
        [record], _, corrupt = replay_journal(path)
        assert corrupt == 0
        assert record.spec == JobSpec(job_id="old", catalog="162Kx172K")
        assert record.state == JobState.RUNNING
        recovered = JobQueue.recover(path)
        assert recovered.get("old").state == JobState.PENDING
        assert recovered.next_pending().job_id == "old"
        with pytest.raises(ConfigError, match="unknown job spec fields"):
            JobSpec.from_json(old)

    def test_recover_missing_journal_is_empty(self, tmp_path):
        queue = JobQueue.recover(tmp_path / "nope" / JOURNAL_NAME)
        assert len(queue) == 0 and queue.depth == 0

    def test_heap_drains_in_priority_then_submission_order(self, tmp_path):
        """Stress the heap selection: ~50 jobs with random priorities
        must drain in (priority desc, submission order asc) order."""
        import random

        rng = random.Random(42)
        queue = JobQueue(tmp_path / JOURNAL_NAME)
        expected = []
        for index in range(50):
            priority = rng.randrange(5)
            queue.submit(JobSpec(job_id=f"j{index:02d}",
                                 catalog="162Kx172K", priority=priority))
            expected.append((-priority, index, f"j{index:02d}"))
        expected.sort()
        drained = []
        while True:
            record = queue.next_pending()
            if record is None:
                break
            drained.append(record.job_id)
            queue.mark_running(record)
        assert drained == [job_id for _, _, job_id in expected]

    def test_retry_keeps_original_fifo_slot(self, tmp_path):
        """A retried job re-enters the queue at its original submission
        slot within its priority band (the linear-scan semantics)."""
        queue = JobQueue(tmp_path / JOURNAL_NAME)
        first = queue.submit(JobSpec(job_id="first", catalog="162Kx172K"))
        queue.submit(JobSpec(job_id="second", catalog="162Kx172K"))
        queue.mark_running(first)
        queue.mark_retry(first, "transient")
        # Despite re-entering after `second` was submitted, `first`
        # still drains ahead of it.
        assert queue.next_pending() is first

    def test_next_pending_skips_stale_heap_entries(self, tmp_path):
        queue = JobQueue(tmp_path / JOURNAL_NAME)
        top = queue.submit(JobSpec(job_id="top", catalog="162Kx172K",
                                   priority=9))
        rest = queue.submit(JobSpec(job_id="rest", catalog="162Kx172K"))
        queue.mark_running(top)
        queue.mark_succeeded(top, {"best_score": 1})
        # `top` still sits in the heap as a stale entry; selection must
        # fall through to `rest` and keep working on repeat calls.
        assert queue.next_pending() is rest
        assert queue.next_pending() is rest

    def test_cancel_pending_is_journaled_and_terminal(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        queue = JobQueue(path)
        record = queue.submit(JobSpec(job_id="cx", catalog="162Kx172K"))
        queue.mark_cancelled(record, reason="operator request")
        assert record.state == JobState.CANCELLED
        assert record.done
        assert queue.depth == 0
        assert queue.next_pending() is None
        with pytest.raises(ConfigError, match="already cancelled"):
            queue.mark_cancelled(record)
        # Replay reconstructs the terminal state from the journal.
        records, events, corrupt = replay_journal(path)
        assert corrupt == 0
        assert records[0].state == JobState.CANCELLED
        assert records[0].error == "operator request"
        assert events[-1]["event"] == "cancelled"
        # And recover() does not resurrect it as pending.
        recovered = JobQueue.recover(path)
        assert recovered.get("cx").state == JobState.CANCELLED
        assert recovered.depth == 0


# -------------------------------------------------------------- specfile
class TestSpecFile:
    def test_json_array_and_jsonl(self, tmp_path):
        array = tmp_path / "specs.json"
        array.write_text(json.dumps(
            [{"catalog": "162Kx172K"}, {"catalog": "543Kx536K"}]))
        lines = tmp_path / "specs.jsonl"
        lines.write_text('# comment\n{"catalog": "162Kx172K"}\n\n'
                         '{"catalog": "543Kx536K", "priority": 3}\n')
        assert [s.catalog for s in load_specs(array)] == \
               ["162Kx172K", "543Kx536K"]
        specs = load_specs(lines)
        assert specs[1].priority == 3

    def test_malformed(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("  \n")
        with pytest.raises(ConfigError, match="empty"):
            load_specs(empty)
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"catalog": ')
        with pytest.raises(ConfigError, match="line 1"):
            load_specs(torn)
        scalar = tmp_path / "scalar.json"
        scalar.write_text('[1, 2]')
        with pytest.raises(ConfigError, match="expected an object"):
            load_specs(scalar)


# ---------------------------------------------------------------- worker
class TestWorker:
    def test_pool_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigError, match="workers must be positive"):
            WorkerPool(0)

    def test_execute_job_inline(self, fasta_pair, tmp_path):
        p0, p1 = fasta_pair
        spec = JobSpec(job_id="inline", seq0=p0, seq1=p1, block_rows=32)
        summary = execute_job(spec, str(tmp_path / "wd"), attempt=1)
        assert summary["best_score"] > 0
        assert not summary["resumed_from_row"]   # fresh run, no resume
        assert os.path.exists(summary["manifest"])
        assert len(summary["digest0"]) == 64

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="children start from a fresh import")
    def test_forked_children_import_nothing(self, tmp_path):
        """Every module a job child uses is loaded before it forks: a
        solo small job, a solo job that reaches Stage 4, and a fused
        group each add nothing to ``sys.modules``."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH",
                                                                 ""))
        done = subprocess.run(
            [sys.executable, "-c", FORK_IMPORT_PROBE, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        children = json.loads(done.stdout.splitlines()[-1])
        assert set(children) == {"solo small", "solo medium", "group"}
        for name, child in children.items():
            assert child["ok"], name
            assert child["added"] == [], name

    @pytest.mark.skipif(not hasattr(signal, "pthread_sigmask")
                        or worker._CTX.get_start_method() != "fork",
                        reason="needs signal masks and forked children")
    def test_early_sigterm_waits_for_the_child_handlers(self, tmp_path,
                                                        monkeypatch):
        """A forked child runs its parent's signal handlers until
        ``_restore_signals`` resets them.  A SIGTERM sent in that window
        (a cancel just after dispatch) must stay pending until the reset
        and then end the child, not run the parent's handler and leave a
        hung child behind."""
        reset = worker._restore_signals

        def slow_reset():
            time.sleep(0.5)         # the fork-to-reset window, widened
            reset()

        monkeypatch.setattr(worker, "_restore_signals", slow_reset)
        record = JobRecord(spec=JobSpec(job_id="wedge", catalog="162Kx172K",
                                        scale=8192, inject_hang_row=0),
                           attempts=1)
        pool = WorkerPool(1)
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            pool.dispatch([record], [str(tmp_path / "wedge")])
            (process,) = [attempt.process for attempt in pool._running]
            process.terminate()
            process.join(10)
            exitcode = process.exitcode
        finally:
            signal.signal(signal.SIGTERM, previous)
            for attempt in pool._running:
                attempt.process.kill()
            pool.shutdown()
        assert exitcode == -signal.SIGTERM

    def test_group_replay_builds_each_pair_once(self, tmp_path,
                                                monkeypatch):
        """The presweep builds each member's catalog pair and hands it to
        the member's pipeline: one ``CatalogEntry.build`` per job."""
        build = CatalogEntry.build
        built: list[int] = []

        def counting_build(entry, *args, **kwargs):
            built.append(kwargs.get("seed"))
            return build(entry, *args, **kwargs)

        monkeypatch.setattr(CatalogEntry, "build", counting_build)
        messages = _replay_group(tmp_path, _small_group(), monkeypatch)
        assert [m["ok"] for m in messages if m.get("job_done")] == [True] * 2
        assert sorted(built) == [0, 1]

    def test_grouped_job_workdir_holds_one_log(self, tmp_path, monkeypatch):
        """A finished grouped 384 x 384 job leaves its manifest and one
        append-only SRA log: no file per special line, no empty ``sca/``."""
        specs = _small_group()
        _replay_group(tmp_path, specs, monkeypatch)
        for spec in specs:
            workdir = tmp_path / spec.job_id
            entries = {str(path.relative_to(workdir))
                       for path in workdir.rglob("*")}
            assert entries == {"manifest.json", "sra",
                               os.path.join("sra", "stage1_rows.lines")}

    def test_failure_injector_fires_only_past_row(self):
        injector = FailureInjector(m=1000, fail_at_row=500)
        injector.on_stage_progress("stage1", 0.25)   # row 250: fine
        injector.on_stage_progress("stage2", 1.0)    # other stages: fine
        with pytest.raises(InjectedFailure):
            injector.on_stage_progress("stage1", 0.6)


def _small_group() -> list[JobSpec]:
    return [JobSpec(job_id=f"small-{seed}", catalog="162Kx172K", scale=8192,
                    seed=seed) for seed in (0, 1)]


def _replay_group(root, specs, monkeypatch) -> list[dict]:
    """Run a group child's body in-process; returns what it reported."""
    monkeypatch.setattr(worker, "_restore_signals", lambda: None)
    results, send = multiprocessing.Pipe(duplex=False)
    worker._attempt_main(send, [
        {"spec": spec.to_json(), "workdir": str(root / spec.job_id),
         "attempt": 1} for spec in specs])
    messages = []
    while True:
        try:
            messages.append(results.recv())
        except EOFError:        # the body closed its end: all reported
            break
    results.close()
    assert messages[-1] == {"ok": True}
    return messages


#: Runs in a fresh interpreter (pytest has long since imported
#: numpy.random): loads what ``repro.cli`` loads, then forks one child
#: per job shape through the pool's own context and its own child entry
#: points.  Each child reports the modules it added to ``sys.modules``.
FORK_IMPORT_PROBE = r"""
import json, os, sys
import repro.cli
from repro.service import JobSpec, worker

def probe(report, main, *args):
    before = set(sys.modules)
    main(*args)
    report.send(sorted(set(sys.modules) - before))
    report.close()

def fork(main, *args):
    results, send = worker._CTX.Pipe(duplex=False)
    report, report_send = worker._CTX.Pipe(duplex=False)
    child = worker._CTX.Process(target=probe,
                                args=(report_send, main, send, *args))
    child.start()
    send.close()
    report_send.close()
    messages = []
    while True:
        try:
            messages.append(results.recv())
        except EOFError:
            break
    added = report.recv()
    child.join()
    results.close()
    report.close()
    return {"ok": all(m.get("ok", True) for m in messages if "hb" not in m),
            "added": added}

root = sys.argv[1]
small = [JobSpec(job_id=f"small-{i}", catalog="162Kx172K", scale=8192,
                 seed=i) for i in range(2)]
medium = JobSpec(job_id="medium", catalog="543Kx536K", scale=512)
def jobs(specs, names):
    return [{"spec": spec.to_json(), "workdir": os.path.join(root, name),
             "attempt": 1} for spec, name in zip(specs, names)]

print(json.dumps({
    "solo small": fork(worker._attempt_main,
                       jobs(small[:1], ["solo-small"])),
    "solo medium": fork(worker._attempt_main,
                        jobs([medium], ["solo-medium"])),
    "group": fork(worker._attempt_main,
                  jobs(small, [spec.job_id for spec in small])),
}))
"""


# --------------------------------------------------------------- service
def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestAlignmentService:
    def test_acceptance_batch(self, fasta_pair, tmp_path, capsys):
        """The ISSUE acceptance scenario, via the `repro batch` CLI.

        8 jobs, one duplicate, one injected mid-run failure: the
        duplicate is served from the ResultCache, the failed job is
        retried from its checkpoint (Stage 1 resumes rather than
        re-running, visible in its span records), and queue-depth /
        cache-hit metrics land in the service manifest.
        """
        from repro.cli import main

        p0, p1 = fasta_pair
        specs = [
            {"job_id": "alpha", "seq0": p0, "seq1": p1, "block_rows": 32},
            {"job_id": "alpha-dup", "seq0": p0, "seq1": p1,
             "block_rows": 32},
            {"job_id": "boom", "seq0": p0, "seq1": p1, "block_rows": 32,
             "scheme": [2, -1, 3, 1], "checkpoint_every_rows": 64,
             "inject_failure_row": 200},
        ] + [{"job_id": f"cat-{seed}", "catalog": "162Kx172K",
              "scale": 8192, "seed": seed, "block_rows": 32}
             for seed in range(5)]
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps(specs))
        root = tmp_path / "svc"

        rc = main(["batch", str(spec_file), "--root", str(root),
                   "--workers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "served from cache" in out

        manifest = _read_json(root / "manifest.json")
        jobs = {j["job_id"]: j for j in manifest["jobs"]}
        assert len(jobs) == 8

        # Duplicate served from the cache (never ran a worker).
        dup = jobs["alpha-dup"]
        assert dup["state"] == JobState.CACHED
        assert dup["cache_hit"] is True
        assert dup["attempts"] == 0
        assert dup["result"]["best_score"] == \
               jobs["alpha"]["result"]["best_score"]
        assert dup["cache_key"] == jobs["alpha"]["cache_key"]

        # Injected failure: first attempt died, retry resumed from the
        # checkpoint and succeeded.
        boom = jobs["boom"]
        assert boom["state"] == JobState.SUCCEEDED
        assert boom["attempts"] == 2
        assert boom["failures"] == 1
        assert boom["result"]["resumed_from_row"] >= 64

        # Stage 1 was not re-run from scratch: its span on the retry
        # records a positive resume row, and the job manifest's extra
        # block agrees.
        job_manifest = _read_json(root / "jobs" / "boom" / "manifest.json")
        stage1_spans = [s for s in job_manifest["spans"]
                        if s["name"] == "stage1"]
        assert stage1_spans
        assert all(s["attributes"]["resumed_from_row"] >= 64
                   for s in stage1_spans)
        assert job_manifest["extra"]["attempt"] == 2
        assert job_manifest["extra"]["resumes_from_row"] >= 64

        # Service-level metrics: queue depth gauge and cache-hit rate.
        metrics = manifest["metrics"]
        assert metrics["service.queue_depth"] == 0
        assert metrics["service.jobs_submitted"] == 8
        assert metrics["service.cache_hits"] >= 1
        assert metrics["service.retries"] == 1
        assert manifest["cache"]["hit_rate"] > 0
        assert manifest["summary"]["succeeded"] == 7
        assert manifest["summary"]["cached"] == 1
        # One service.job span per finished attempt.
        assert sum(1 for s in manifest["spans"]
                   if s["name"] == "service.job") >= 8

    def test_kill_and_resume_queue(self, tmp_path, capsys):
        """`--max-jobs 1` then `--resume` is the kill+resume analogue:
        the journal alone carries the queue across service processes and
        the second run serves the duplicate from the persisted cache."""
        from repro.cli import main

        specs = [
            {"job_id": "first", "catalog": "162Kx172K", "scale": 8192,
             "block_rows": 32},
            {"job_id": "first-dup", "catalog": "162Kx172K", "scale": 8192,
             "block_rows": 32},
            {"job_id": "other", "catalog": "162Kx172K", "scale": 8192,
             "seed": 9, "block_rows": 32},
        ]
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps(specs))
        root = tmp_path / "svc"

        rc = main(["batch", str(spec_file), "--root", str(root),
                   "--max-jobs", "1"])
        assert rc == 0
        assert "still pending" in capsys.readouterr().out

        rc = main(["batch", "--resume", "--root", str(root)])
        assert rc == 0
        capsys.readouterr()

        records, events, _ = replay_journal(root / JOURNAL_NAME)
        by_id = {r.job_id: r for r in records}
        assert by_id["first"].state == JobState.SUCCEEDED
        assert by_id["first-dup"].state == JobState.CACHED
        assert by_id["other"].state == JobState.SUCCEEDED
        assert any(e["event"] == "recovered" for e in events)

        rc = main(["jobs", "--root", str(root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "first-dup" in out and "cached" in out

    def test_max_jobs_caps_coalesced_groups(self, tmp_path):
        """Three jobs that would coalesce into one group: ``max_jobs=1``
        starts one of them (its group capped to a solo dispatch) and
        leaves two pending for the next run."""
        service = AlignmentService(tmp_path / "svc", workers=2)
        try:
            service.submit_many(
                JobSpec(job_id=f"j{seed}", catalog="162Kx172K", scale=8192,
                        seed=seed, block_rows=32) for seed in range(3))
            first = service.run(max_jobs=1)
            states = [service.queue.get(f"j{seed}").state
                      for seed in range(3)]
            assert states.count(JobState.SUCCEEDED) == 1
            assert states.count(JobState.PENDING) == 2
            assert first["succeeded"] == 1
            assert "kernel.batch.dispatches" not in dict(
                service.telemetry.metrics.snapshot())
            service.run()
            assert all(service.queue.get(f"j{seed}").state
                       == JobState.SUCCEEDED for seed in range(3))
        finally:
            service.close()

    def test_deadline_timeout_fails_job(self, fasta_pair, tmp_path):
        p0, p1 = fasta_pair
        service = AlignmentService(tmp_path / "svc")
        try:
            service.submit(JobSpec(job_id="slow", seq0=p0, seq1=p1,
                                   deadline_seconds=1e-3, max_retries=0))
            summary = service.run()
        finally:
            service.close()
        record = service.queue.get("slow")
        assert record.state == JobState.FAILED
        assert "deadline" in record.error
        assert summary["timeouts"] == 1
        assert summary["failed"] == 1

    def test_retries_exhausted_marks_failed(self, fasta_pair, tmp_path):
        p0, p1 = fasta_pair
        service = AlignmentService(tmp_path / "svc")
        try:
            # No checkpointing and failure injected on *every* row of
            # every attempt would defeat the injector's attempt<=1 guard;
            # instead exhaust the budget with max_retries=0.
            service.submit(JobSpec(
                job_id="doomed", seq0=p0, seq1=p1, max_retries=0,
                checkpoint_every_rows=None, inject_failure_row=100))
            summary = service.run()
        finally:
            service.close()
        record = service.queue.get("doomed")
        assert record.state == JobState.FAILED
        assert "InjectedFailure" in record.error
        assert summary["retries"] == 0

    def test_python_api_summary(self, tmp_path):
        service = AlignmentService(tmp_path / "svc", workers=2)
        try:
            service.submit_many([
                JobSpec(job_id="a", catalog="162Kx172K", scale=8192,
                        block_rows=32),
                JobSpec(job_id="b", catalog="162Kx172K", scale=8192,
                        block_rows=32),   # duplicate of a
            ])
            summary = service.run()
        finally:
            service.close()
        assert summary["jobs"] == 2
        assert summary["succeeded"] + summary["cached"] == 2
        assert summary["cached"] == 1
        assert summary["jobs_per_second"] > 0
        assert summary["cache"]["hits"] == 1


    def test_run_releases_per_job_memos(self, tmp_path):
        """Once ``run`` settles every job — succeeded, served from the
        cache, failed, quarantined — no per-job memo is left behind."""
        small = dict(catalog="162Kx172K", scale=8192, block_rows=32)
        service = AlignmentService(
            tmp_path / "svc",
            supervisor=SupervisorConfig(crash_loop_threshold=1, backoff=None))
        try:
            service.submit_many([
                JobSpec(job_id="ok", **small),
                JobSpec(job_id="dup", **small),
                JobSpec(job_id="failed", seed=1, max_retries=0,
                        inject_failure_row=0, **small),
                JobSpec(job_id="poison", seed=2, inject_crash_attempts=1,
                        **small)])
            service.run()
        finally:
            service.close()
        assert {r.job_id: r.state for r in service.queue.records()} == {
            "ok": JobState.SUCCEEDED, "dup": JobState.CACHED,
            "failed": JobState.FAILED, "poison": JobState.QUARANTINED}
        assert service._cells == {}
        assert service._attempt_log == {}

    def test_run_wakes_on_worker_reports(self, tmp_path):
        """``run`` waits on the workers' pipes, not a fixed sleep: two
        small jobs drain long before one 2 s ``poll_seconds`` wait."""
        service = AlignmentService(tmp_path / "svc", poll_seconds=2.0)
        try:
            service.submit_many([
                JobSpec(job_id=f"w{i}", catalog="162Kx172K", scale=8192,
                        seed=i, block_rows=32) for i in range(2)])
            tick = time.monotonic()
            summary = service.run()
            elapsed = time.monotonic() - tick
        finally:
            service.close()
        assert summary["succeeded"] == 2
        assert elapsed < 1.5


# ------------------------------------------------------------ cancellation
class TestCancellation:
    def test_service_cancel_pending_and_summary(self, tmp_path):
        service = AlignmentService(tmp_path / "svc")
        try:
            service.submit(JobSpec(job_id="go", catalog="162Kx172K",
                                   scale=8192, block_rows=32))
            service.submit(JobSpec(job_id="stop", catalog="162Kx172K",
                                   scale=8192, seed=1, block_rows=32))
            assert service.cancel("stop") is True
            assert service.cancel("stop") is False      # already terminal
            with pytest.raises(ConfigError, match="unknown job id"):
                service.cancel("ghost")
            summary = service.run()
        finally:
            service.close()
        assert service.queue.get("stop").state == JobState.CANCELLED
        assert service.queue.get("go").state == JobState.SUCCEEDED
        assert summary["cancelled"] == 1
        assert summary["succeeded"] == 1
        metrics = service.telemetry.metrics.snapshot()
        assert metrics["service.jobs_cancelled"] == 1

    def test_service_cancel_running_terminates_attempt(self, tmp_path):
        """A running job's worker process is killed and the job lands in
        CANCELLED without charging the retry budget."""
        service = AlignmentService(tmp_path / "svc")
        try:
            # A big scale keeps the attempt busy long enough to cancel.
            service.submit(JobSpec(job_id="long", catalog="543Kx536K",
                                   scale=65536, block_rows=32))
            for _ in range(200):
                service.step()
                record = service.queue.get("long")
                if record.state == JobState.RUNNING:
                    break
            assert record.state == JobState.RUNNING
            assert service.cancel("long") is True
            assert record.state == JobState.CANCELLED
            assert record.failures == 0
            assert service.pool.in_flight == 0
            # The pump never resurrects it.
            service.step()
            assert record.state == JobState.CANCELLED
        finally:
            service.close()

    def test_jobs_cancel_cli(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "svc"
        service = AlignmentService(root)
        try:
            service.submit(JobSpec(job_id="victim", catalog="162Kx172K",
                                   scale=8192, block_rows=32))
        finally:
            service.close()

        assert main(["jobs", "cancel", "--root", str(root)]) == 2  # no id
        assert main(["jobs", "cancel", "ghost", "--root", str(root)]) == 2
        assert main(["jobs", "cancel", "victim", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "cancelled victim" in out
        # Re-cancelling a terminal job is refused.
        assert main(["jobs", "cancel", "victim", "--root", str(root)]) == 1
        # The cancellation is durable: recover() sees the terminal state.
        recovered = JobQueue.recover(root / JOURNAL_NAME)
        assert recovered.get("victim").state == JobState.CANCELLED
