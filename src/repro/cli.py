"""Command-line interface.

``cudalign`` mirrors the original tool's workflow:

* ``cudalign align A.fasta B.fasta`` — run the six-stage pipeline and
  report the score, positions, per-stage times and statistics;
* ``cudalign view alignment.bin A.fasta B.fasta`` — Stage 6: reconstruct
  and render a saved binary alignment;
* ``cudalign catalog`` — list the synthetic Table-II catalog;
* ``cudalign synth`` — generate a synthetic pair as FASTA files;
* ``cudalign batch jobs.json --root DIR`` — run a file of alignment jobs
  through the job service (queue, worker pool, result cache, retries);
* ``cudalign jobs --root DIR`` — inspect a service root's queue journal
  (``jobs cancel JOB_ID`` journals a cancellation);
* ``cudalign serve --root DIR`` — the HTTP gateway: job submission,
  server-sent-event progress streams, per-tenant quotas, backpressure;
* ``cudalign fsck DIR`` — verify every checksummed artifact under a run
  or service directory, optionally quarantining/repairing damage.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigError, StorageError
from repro.align.scoring import ScoringScheme
from repro.core.config import PipelineConfig, small_config
from repro.core.pipeline import CUDAlign
from repro.sequences.catalog import CATALOG, get_entry
from repro.sequences.fasta import read_fasta, write_fasta
from repro.storage.binary_alignment import (BinaryAlignment,
                                            read_binary_alignment,
                                            write_binary_alignment)
from repro.telemetry import JsonLinesSink, ProgressRenderer
from repro.viz.dotplot import svg_dotplot
from repro.viz.text_render import render_alignment_text


def _add_scoring_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--match", type=int, default=1)
    parser.add_argument("--mismatch", type=int, default=-3)
    parser.add_argument("--gap-first", type=int, default=5)
    parser.add_argument("--gap-ext", type=int, default=2)


def _scheme(args: argparse.Namespace) -> ScoringScheme:
    return ScoringScheme(match=args.match, mismatch=args.mismatch,
                         gap_first=args.gap_first, gap_ext=args.gap_ext)


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("supervision")
    group.add_argument("--stall-seconds", type=float, default=None,
                       help="kill attempts whose progress heartbeat stops "
                            "advancing for this long (requeued without "
                            "charging retries; default: disabled)")
    group.add_argument("--max-rss-mb", type=int, default=None,
                       help="per-attempt resident-set ceiling in MiB "
                            "(over-budget attempts fail as 'memory limit "
                            "exceeded'; Linux only, default: disabled)")
    group.add_argument("--crash-loop-threshold", type=int, default=3,
                       help="abnormal attempt endings (crash/stall) before "
                            "a job is quarantined")
    group.add_argument("--retry-backoff-base", type=float, default=0.05,
                       metavar="SECONDS",
                       help="base of the exponential retry backoff "
                            "(0 disables backoff: hot requeue)")
    group.add_argument("--disk-low-water-mb", type=int, default=None,
                       help="pause dispatch + evict cache when the root's "
                            "filesystem has less than this many MiB free")
    group.add_argument("--disk-high-water-mb", type=int, default=None,
                       help="resume dispatch above this free-space mark "
                            "(default: twice the low-water mark)")


def _add_batching_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("micro-batching")
    group.add_argument("--batch-max-jobs", type=int, default=16,
                       help="most queued small jobs coalesced into one "
                            "fused worker dispatch (default: 16; "
                            "1 disables coalescing)")
    group.add_argument("--batch-max-cells", type=int, default=1 << 18,
                       help="a job joins a coalesced dispatch only when its "
                            "DP matrix is at or under this many cells "
                            "(default: 262144)")


def _batching(args: argparse.Namespace):
    """Build the BatchConfig shared by ``batch`` and ``serve``."""
    from repro.service import BatchConfig

    return BatchConfig(max_jobs=args.batch_max_jobs,
                       max_cells=args.batch_max_cells)


def cmd_align(args: argparse.Namespace) -> int:
    s0 = read_fasta(args.seq0)
    s1 = read_fasta(args.seq1)
    if args.paper_grids:
        config = PipelineConfig(scheme=_scheme(args), sra_bytes=args.sra_bytes,
                                max_partition_size=args.max_partition_size,
                                checkpoint_every_rows=args.checkpoint_every)
    else:
        config = small_config(
            block_rows=args.block_rows, n=len(s1), sra_rows=args.sra_rows,
            max_partition_size=args.max_partition_size,
            scheme=_scheme(args),
            checkpoint_every_rows=args.checkpoint_every)

    observer = ProgressRenderer(sys.stderr) if args.progress else None
    trace_sink = JsonLinesSink(args.trace) if args.trace else None
    sinks = (trace_sink,) if trace_sink is not None else ()
    try:
        result = CUDAlign(config, workdir=args.workdir, observer=observer,
                          sinks=sinks).run(s0, s1)
    finally:
        if trace_sink is not None:
            trace_sink.close()
    out = sys.stdout
    print(f"comparison: {len(s0):,} x {len(s1):,} "
          f"({result.matrix_cells:.2e} cells)", file=out)
    print(f"best score: {result.best_score}", file=out)
    if result.alignment is None:
        print("no positive-score alignment exists", file=out)
        return 0
    print(f"start: {result.alignment.start}  end: {result.alignment.end}",
          file=out)
    print(f"length: {result.alignment_length:,}  "
          f"gaps: {result.gap_columns:,}", file=out)
    comp = result.composition
    print(f"matches: {comp.matches:,}  mismatches: {comp.mismatches:,}  "
          f"gap opens: {comp.gap_opens:,}  gap exts: {comp.gap_extensions:,}",
          file=out)
    print("stage walls (s): " + "  ".join(
        f"{k}:{v:.3f}" for k, v in result.stage_wall_seconds().items()),
        file=out)
    print(f"crosspoints: {result.crosspoint_counts}", file=out)
    if args.trace:
        print(f"trace written to {args.trace}", file=out)
    if args.metrics:
        print("metrics:", file=out)
        for name, value in sorted((result.metrics or {}).items()):
            print(f"  {name}: {value}", file=out)
    if args.binary_out:
        write_binary_alignment(args.binary_out, result.binary)
        print(f"binary alignment written to {args.binary_out} "
              f"({result.binary.nbytes} bytes)", file=out)
    if args.svg_out and result.alignment is not None:
        with open(args.svg_out, "w") as handle:
            handle.write(svg_dotplot(result.alignment, len(s0), len(s1)))
        print(f"dotplot written to {args.svg_out}", file=out)
    return 0


def cmd_view(args: argparse.Namespace) -> int:
    from repro.integrity import MAGIC

    with open(args.binary, "rb") as handle:
        head = handle.read(len(MAGIC))
    if head == MAGIC:
        binary = read_binary_alignment(args.binary)
    else:
        # Pre-integrity file: the bare wire format, unchecksummed.
        with open(args.binary, "rb") as handle:
            binary = BinaryAlignment.decode(handle.read())
    s0 = read_fasta(args.seq0)
    s1 = read_fasta(args.seq1)
    alignment = binary.reconstruct()
    print(render_alignment_text(alignment, s0, s1, width=args.width))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.report import ReportOptions, generate_report
    report = generate_report(ReportOptions(scale=args.scale, seed=args.seed,
                                           sra_rows=args.sra_rows))
    print(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    print(f"{'key':<16} {'paper sizes':>24} {'scaled':>16} "
          f"{'paper score':>12}  regime")
    for entry in CATALOG:
        m, n = entry.scaled_sizes(args.scale)
        print(f"{entry.key:<16} "
              f"{entry.paper_size0:>11,} x{entry.paper_size1:>11,} "
              f"{m:>7,} x{n:>7,} {entry.paper_score:>12,}  {entry.regime}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    from repro.baselines.dbscan import scan_database
    from repro.sequences.fasta import iter_fasta
    query = read_fasta(args.query)
    subjects = list(iter_fasta(args.database))
    result = scan_database(query, subjects, _scheme(args), top=args.top)
    print(f"query {query.name} ({len(query):,} bp) vs {len(subjects)} "
          f"subjects ({result.cells:,} cells, {result.mcups:,.0f} MCUPS)")
    for hit in result.hits:
        print(f"  {hit.score:>8,}  {hit.name}")
    return 0


def cmd_pack(args: argparse.Namespace) -> int:
    from repro.sequences.bigseq import pack_fasta
    length = pack_fasta(args.fasta, args.out, record=args.record)
    print(f"packed {length:,} bp into {args.out} (open with "
          f"repro.sequences.open_packed)")
    return 0


def _supervisor(args: argparse.Namespace):
    """Build the SupervisorConfig shared by ``batch`` and ``serve``."""
    from repro.service import RetryBackoff, SupervisorConfig

    backoff = None
    if args.retry_backoff_base > 0:
        backoff = RetryBackoff(base_seconds=args.retry_backoff_base)
    return SupervisorConfig(
        stall_seconds=args.stall_seconds,
        max_rss_bytes=(args.max_rss_mb * 1024 * 1024
                       if args.max_rss_mb else None),
        crash_loop_threshold=args.crash_loop_threshold,
        backoff=backoff,
        disk_low_water_bytes=(args.disk_low_water_mb * 1024 * 1024
                              if args.disk_low_water_mb else None),
        disk_high_water_bytes=(args.disk_high_water_mb * 1024 * 1024
                               if args.disk_high_water_mb else None))


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.report import render_batch_table
    from repro.service import AlignmentService, load_specs
    from repro.telemetry import JsonLinesSink

    if args.specs is None and not args.resume:
        print("error: give a spec file, or --resume to continue a journal",
              file=sys.stderr)
        return 2
    supervisor, batching = _supervisor(args), _batching(args)
    trace_sink = JsonLinesSink(args.trace) if args.trace else None
    sinks = (trace_sink,) if trace_sink is not None else ()
    service = AlignmentService(args.root, workers=args.workers,
                               resume=args.resume, sinks=sinks,
                               supervisor=supervisor, batching=batching)
    try:
        if args.specs is not None:
            service.submit_many(load_specs(args.specs))
        summary = service.run(max_jobs=args.max_jobs)
    finally:
        service.close()
    print(render_batch_table(service.queue.records(), summary), end="")
    print(f"service manifest: {args.root}/manifest.json")
    if summary["remaining"]:
        print(f"{summary['remaining']} job(s) still pending — continue with "
              f"`batch --resume --root {args.root}`")
    if summary["quarantined"]:
        print(f"{summary['quarantined']} job(s) quarantined — triage with "
              f"`jobs diagnose JOB_ID --root {args.root}`")
    if summary["failed"] or summary["quarantined"]:
        return 1
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    import os

    from repro.report import render_jobs_table
    from repro.service import JOURNAL_NAME, JobQueue, replay_journal

    journal = os.path.join(args.root, JOURNAL_NAME)
    if args.action == "cancel":
        if not args.job_id:
            print("error: `jobs cancel` needs a job id", file=sys.stderr)
            return 2
        queue = JobQueue.recover(journal)
        if len(queue) == 0:
            print(f"no journal at {journal}", file=sys.stderr)
            return 1
        record = queue.find(args.job_id)
        if record is None:
            print(f"error: unknown job {args.job_id!r}", file=sys.stderr)
            return 2
        if record.done:
            print(f"error: job {args.job_id!r} is already {record.state}",
                  file=sys.stderr)
            return 1
        queue.mark_cancelled(record, reason="cancelled via CLI")
        print(f"cancelled {args.job_id} (journaled; a live gateway is "
              f"cancelled through DELETE /v1/jobs/{args.job_id})")
        return 0
    if args.action == "diagnose":
        if not args.job_id:
            print("error: `jobs diagnose` needs a job id", file=sys.stderr)
            return 2
        return _diagnose(args.root, args.job_id)
    records, events, corrupt = replay_journal(journal)
    if not events:
        print(f"no journal at {journal}", file=sys.stderr)
        return 1
    print(render_jobs_table(records, events), end="")
    if corrupt:
        print(f"warning: {corrupt} corrupt journal record(s) skipped "
              f"(run `fsck {args.root}` for details)", file=sys.stderr)
    return 0


def _diagnose(root: str, job_id: str) -> int:
    """Render a quarantined job's diagnostics bundle for triage."""
    import os

    from repro.service import read_diagnostics

    workdir = os.path.join(root, "jobs", job_id)
    try:
        bundle = read_diagnostics(workdir)
    except FileNotFoundError:
        print(f"error: no diagnostics bundle under {workdir} — only "
              f"quarantined jobs leave one (see `jobs --root {root}`)",
              file=sys.stderr)
        return 1
    print(f"job {bundle['job_id']}: {bundle['state']}")
    print(f"  error:         {bundle.get('error')}")
    print(f"  attempts:      {bundle.get('attempts')} "
          f"(failures: {bundle.get('failures')}, "
          f"crashes: {bundle.get('crashes')}, "
          f"interruptions: {bundle.get('interruptions')})")
    print(f"  checkpoint:    row {bundle.get('checkpoint_row')}")
    print(f"  workdir:       {bundle.get('workdir')}")
    print(f"  manifest:      {bundle.get('manifest')}")
    log = bundle.get("attempt_log") or []
    if log:
        print("  attempt log (most recent last):")
        for entry in log:
            beat = entry.get("last_heartbeat")
            at = (f" at {beat[0]} {beat[1]:.3f}" if beat else "")
            print(f"    #{entry.get('attempt')} [{entry.get('kind')}]"
                  f"{at}: {entry.get('error')}")
        last_tb = next((e.get("traceback") for e in reversed(log)
                        if e.get("traceback")), None)
        if last_tb:
            print("  last traceback:")
            for line in last_tb.rstrip().splitlines():
                print(f"    {line}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.gateway import Gateway, GatewayPolicy, ServiceDispatcher
    from repro.gateway import serve as serve_gateway
    from repro.telemetry import JsonLinesSink

    supervisor, batching = _supervisor(args), _batching(args)
    trace_sink = JsonLinesSink(args.trace) if args.trace else None
    sinks = (trace_sink,) if trace_sink is not None else ()
    dispatcher = ServiceDispatcher(args.root, workers=args.workers,
                                   resume=args.resume, sinks=sinks,
                                   supervisor=supervisor, batching=batching)
    policy = GatewayPolicy(
        max_active_per_tenant=args.tenant_max_active,
        rate_per_tenant=args.tenant_rate,
        burst_per_tenant=args.tenant_burst,
        max_queue_depth=args.max_queue_depth)
    gateway = Gateway(dispatcher, policy, host=args.host, port=args.port,
                      max_body=args.max_body)

    def on_start(gw: Gateway) -> None:
        print(f"gateway listening on http://{gw.host}:{gw.port} "
              f"(root: {args.root}, workers: {args.workers})", flush=True)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{gw.port}\n")

    async def _main() -> None:
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, shutdown.set)
        await serve_gateway(gateway, shutdown, on_start)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    finally:
        dispatcher.close()
    print("gateway stopped; journal + cache live under "
          f"{args.root} (resume with `serve --resume`)")
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    import json

    from repro.integrity import fsck_tree

    report = fsck_tree(args.root, repair=args.repair)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(f"fsck {report.root}: {report.scanned} artifact(s) scanned, "
              f"{report.verified} verified, {len(report.findings)} "
              f"problem(s), {len(report.repaired)} repaired")
        for finding in report.findings:
            print(f"  [{finding.problem}] {finding.path}"
                  + (f" ({finding.kind})" if finding.kind else ""))
            print(f"      {finding.detail}")
        for path in report.repaired:
            print(f"  repaired: {path}")
    return 0 if report.clean else 1


def cmd_synth(args: argparse.Namespace) -> int:
    entry = get_entry(args.key)
    s0, s1 = entry.build(scale=args.scale, seed=args.seed)
    write_fasta(args.out0, s0)
    write_fasta(args.out1, s1)
    print(f"wrote {args.out0} ({len(s0):,} bp) and {args.out1} ({len(s1):,} bp)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cudalign",
        description="CUDAlign 2.0 reproduction: huge-sequence Smith-Waterman "
                    "alignment in linear space")
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="run the six-stage pipeline")
    p_align.add_argument("seq0")
    p_align.add_argument("seq1")
    _add_scoring_args(p_align)
    p_align.add_argument("--block-rows", type=int, default=64,
                         help="special-row granularity (alpha * T)")
    p_align.add_argument("--sra-rows", type=int, default=8,
                         help="SRA budget in special rows")
    p_align.add_argument("--sra-bytes", type=int, default=50 * 10**9,
                         help="raw SRA byte budget (with --paper-grids)")
    p_align.add_argument("--max-partition-size", type=int, default=32)
    p_align.add_argument("--workdir", default=None,
                         help="directory for the disk-backed SRA")
    p_align.add_argument("--checkpoint-every", type=int, default=None,
                         help="Stage-1 checkpoint interval in rows "
                              "(needs --workdir; resumes automatically)")
    p_align.add_argument("--progress", action="store_true",
                         help="print live per-stage progress to stderr")
    p_align.add_argument("--trace", default=None, metavar="FILE",
                         help="write a JSON-lines span/metric trace here")
    p_align.add_argument("--metrics", action="store_true",
                         help="print the run's metrics snapshot")
    p_align.add_argument("--paper-grids", action="store_true",
                         help="use the paper's GTX 285 grid constants")
    p_align.add_argument("--binary-out", default=None)
    p_align.add_argument("--svg-out", default=None)
    p_align.set_defaults(func=cmd_align)

    p_view = sub.add_parser("view", help="render a binary alignment (Stage 6)")
    p_view.add_argument("binary")
    p_view.add_argument("seq0")
    p_view.add_argument("seq1")
    p_view.add_argument("--width", type=int, default=60)
    p_view.set_defaults(func=cmd_view)

    p_cat = sub.add_parser("catalog", help="list the synthetic Table-II catalog")
    p_cat.add_argument("--scale", type=int, default=1024)
    p_cat.set_defaults(func=cmd_catalog)

    p_report = sub.add_parser(
        "report", help="run the scaled evaluation and print the full report")
    p_report.add_argument("--scale", type=int, default=8192)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--sra-rows", type=int, default=8)
    p_report.add_argument("--out", default=None,
                          help="also write the report to this file")
    p_report.set_defaults(func=cmd_report)

    p_scan = sub.add_parser(
        "scan", help="score a query against a FASTA database (batch kernel)")
    p_scan.add_argument("query")
    p_scan.add_argument("database")
    p_scan.add_argument("--top", type=int, default=10)
    _add_scoring_args(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_pack = sub.add_parser(
        "pack", help="convert FASTA to the memory-mappable packed format")
    p_pack.add_argument("fasta")
    p_pack.add_argument("out")
    p_pack.add_argument("--record", type=int, default=0)
    p_pack.set_defaults(func=cmd_pack)

    p_batch = sub.add_parser(
        "batch", help="run a file of alignment jobs through the job service")
    p_batch.add_argument("specs", nargs="?", default=None,
                         help="job spec file (JSON array or JSON lines); "
                              "optional with --resume")
    p_batch.add_argument("--root", required=True,
                         help="service root (journal, cache, per-job "
                              "workdirs, manifest)")
    p_batch.add_argument("--workers", type=int, default=1,
                         help="concurrent worker processes")
    p_batch.add_argument("--max-jobs", type=int, default=None,
                         help="stop after this many jobs finish (the rest "
                              "stay pending in the journal)")
    p_batch.add_argument("--resume", action="store_true",
                         help="recover the queue from the root's journal "
                              "before submitting anything")
    p_batch.add_argument("--trace", default=None, metavar="FILE",
                         help="write a JSON-lines service trace here")
    _add_supervision_args(p_batch)
    _add_batching_args(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_jobs = sub.add_parser(
        "jobs", help="inspect a service root's queue journal")
    p_jobs.add_argument("action", nargs="?", default="list",
                        choices=("list", "cancel", "diagnose"),
                        help="'list' (default) renders the journal; "
                             "'cancel JOB_ID' journals a cancellation of "
                             "a pending job; 'diagnose JOB_ID' renders a "
                             "quarantined job's diagnostics bundle")
    p_jobs.add_argument("job_id", nargs="?", default=None,
                        help="job id for 'cancel' / 'diagnose'")
    p_jobs.add_argument("--root", required=True)
    p_jobs.set_defaults(func=cmd_jobs)

    p_serve = sub.add_parser(
        "serve", help="HTTP gateway: submission, SSE progress, quotas")
    p_serve.add_argument("--root", required=True,
                         help="service root (journal, cache, per-job "
                              "workdirs); a 201 submission survives a "
                              "gateway kill via the journal")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8650,
                         help="listen port (0 picks an ephemeral one)")
    p_serve.add_argument("--port-file", default=None, metavar="FILE",
                         help="write the bound port here once listening "
                              "(for scripts using --port 0)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="concurrent alignment worker processes")
    p_serve.add_argument("--resume", action="store_true",
                         help="recover the root's journal before serving")
    p_serve.add_argument("--max-body", type=int, default=1 << 20,
                         help="request body byte limit (413 beyond it)")
    p_serve.add_argument("--tenant-max-active", type=int, default=8,
                         help="per-tenant concurrent (non-terminal) job "
                              "quota")
    p_serve.add_argument("--tenant-rate", type=float, default=50.0,
                         help="per-tenant sustained submissions/sec")
    p_serve.add_argument("--tenant-burst", type=float, default=20.0,
                         help="per-tenant submission burst size")
    p_serve.add_argument("--max-queue-depth", type=int, default=256,
                         help="global pending-job ceiling (429 beyond it)")
    p_serve.add_argument("--trace", default=None, metavar="FILE",
                         help="write a JSON-lines service trace here")
    _add_supervision_args(p_serve)
    _add_batching_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_fsck = sub.add_parser(
        "fsck", help="verify every checksummed artifact under a directory")
    p_fsck.add_argument("root",
                        help="run workdir or service root to scan")
    p_fsck.add_argument("--repair", action="store_true",
                        help="quarantine corrupt artifacts and rewrite "
                             "damaged journals and SRA logs keeping their "
                             "valid records")
    p_fsck.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    p_fsck.set_defaults(func=cmd_fsck)

    p_synth = sub.add_parser("synth", help="generate a catalog pair as FASTA")
    p_synth.add_argument("key")
    p_synth.add_argument("out0")
    p_synth.add_argument("out1")
    p_synth.add_argument("--scale", type=int, default=1024)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `cudalign catalog | head`
        return 0
    except ConfigError as exc:
        # Bad knobs (--workers 0, malformed job specs, ...) are user
        # errors: one clean line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StorageError as exc:
        # Corrupt or unreadable artifacts (e.g. `view` on a damaged
        # binary alignment): report cleanly and point at fsck.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
