"""Artifact integrity layer: checksummed codec, fault injection, fsck.

Everything the pipeline persists (special lines, checkpoints, cache
entries, journal records, binary alignments) flows through
:mod:`repro.integrity.codec`, so corruption is detected at read time as
a typed :class:`~repro.errors.IntegrityError` and every consumer can
degrade — recompute, widen, evict, requeue — instead of dying.
:mod:`repro.integrity.faults` injects deterministic storage faults at
the same interposition points; :mod:`repro.integrity.fsck` audits a
whole workdir offline.
"""

from repro.errors import IntegrityError
from repro.integrity.codec import (
    FRAME_VERSION,
    KIND_BINARY_ALIGNMENT,
    KIND_CACHE_ENTRY,
    KIND_CHECKPOINT,
    KIND_JOURNAL_RECORD,
    KIND_SPECIAL_LINE,
    MAGIC,
    QUARANTINE_DIR,
    append_journal_record,
    frame,
    open_json,
    quarantine_file,
    read_artifact,
    seal_json,
    seal_record,
    unframe,
    verify_record,
    write_artifact,
)
from repro.integrity.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    Injection,
    corrupt_file,
    inject,
    tamper_special_line,
)
from repro.integrity.fsck import Finding, FsckReport, fsck_tree

__all__ = [
    "IntegrityError",
    "MAGIC",
    "FRAME_VERSION",
    "KIND_SPECIAL_LINE",
    "KIND_CHECKPOINT",
    "KIND_CACHE_ENTRY",
    "KIND_JOURNAL_RECORD",
    "KIND_BINARY_ALIGNMENT",
    "QUARANTINE_DIR",
    "frame",
    "unframe",
    "seal_record",
    "verify_record",
    "seal_json",
    "open_json",
    "read_artifact",
    "write_artifact",
    "append_journal_record",
    "quarantine_file",
    "FaultPlan",
    "FaultSpec",
    "Injection",
    "InjectedFault",
    "inject",
    "corrupt_file",
    "tamper_special_line",
    "Finding",
    "FsckReport",
    "fsck_tree",
]
