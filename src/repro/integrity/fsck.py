"""Offline artifact audit: the engine behind ``repro fsck <workdir>``.

Walks a run or service directory and verifies every checksummed artifact
it recognises.  Artifacts are classified by *content*, not just by name:
any file opening with the ``RPIA`` magic is a binary frame (the frame
embeds its own kind), ``.lines`` files are SRA logs verified record by
record (:func:`repro.storage.sra.check_log`), ``journal.jsonl`` is a
sealed record journal, and ``.json`` files carrying a ``repro-artifact``
envelope are verified against their embedded SHA-256.

``repair=True`` makes the scan converge instead of just report: corrupt
framed artifacts and cache entries are quarantined (preserved under
``quarantine/``, never deleted), and damaged journals and SRA logs are
rewritten keeping only their valid records — exactly the records replay
or recovery would have honoured — with the original quarantined first.
A special line dropped from its log is recomputed by the run that needs
it; losing one widens a partition, it never changes the alignment.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.errors import IntegrityError
from repro.integrity import codec

#: Journal basenames whose every line must be a sealed record.
JOURNAL_NAMES = ("journal.jsonl",)

#: Suffixes that must always hold a framed artifact.
FRAMED_SUFFIXES = (".bin", ".ckpt")


@dataclass(frozen=True)
class Finding:
    """One integrity defect located by the scan."""

    path: str            # file (":<lineno>" appended for journal lines,
                         # "@<offset>" for SRA log records)
    kind: str | None     # artifact kind, when the frame/record names one
    problem: str         # bad-frame | corrupt-record | bad-envelope |
                         # not-framed
    detail: str

    def to_json(self) -> dict[str, Any]:
        return {"path": self.path, "kind": self.kind,
                "problem": self.problem, "detail": self.detail}


@dataclass
class FsckReport:
    """Outcome of one :func:`fsck_tree` scan."""

    root: str
    scanned: int = 0
    verified: int = 0
    findings: list[Finding] = field(default_factory=list)
    repaired: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no unrepaired damage remains."""
        return not self.findings

    def to_json(self) -> dict[str, Any]:
        return {"root": self.root, "scanned": self.scanned,
                "verified": self.verified, "clean": self.clean,
                "findings": [f.to_json() for f in self.findings],
                "repaired": list(self.repaired)}


def fsck_tree(root: str | os.PathLike, *, repair: bool = False) -> FsckReport:
    """Scan ``root`` recursively; optionally quarantine/repair damage.

    Returns a report whose ``findings`` list the damage still present
    after any repairs (so ``repair=True`` followed by a clean rescan is
    the expected fixed point).  Quarantined files and ``.tmp`` leftovers
    are never scanned.
    """
    from repro.storage.sra import LOG_SUFFIX  # storage imports integrity

    root = os.fspath(root)
    report = FsckReport(root=root)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d != codec.QUARANTINE_DIR)
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if name.endswith(".tmp"):
                continue  # half-written temp file, never authoritative
            if name in JOURNAL_NAMES:
                report.scanned += 1
                _check_journal(path, report, repair=repair)
            elif name.endswith(LOG_SUFFIX):
                report.scanned += 1
                _check_log(path, report, repair=repair)
            elif _sniff_frame(path):
                report.scanned += 1
                _check_frame(path, report, repair=repair)
            elif name.endswith(FRAMED_SUFFIXES):
                report.scanned += 1
                _flag(report, path, None, "not-framed",
                      "expected a checksummed artifact frame",
                      repair=repair)
            elif name.endswith(".json"):
                _check_json(path, report, repair=repair)
    return report


# ----------------------------------------------------------------- checks
def _sniff_frame(path: str) -> bool:
    try:
        with open(path, "rb") as handle:
            return handle.read(len(codec.MAGIC)) == codec.MAGIC
    except OSError:
        return False


def _flag(report: FsckReport, path: str, kind: str | None, problem: str,
          detail: str, *, repair: bool) -> None:
    """Record a file-level defect, quarantining it when repairing."""
    if repair:
        dest = codec.quarantine_file(path)
        if dest is not None:
            report.repaired.append(path)
            return
    report.findings.append(Finding(path, kind, problem, detail))


def _check_frame(report_path_hint: str, report: FsckReport, *,
                 repair: bool) -> None:
    path = report_path_hint
    try:
        kind, _ = codec.unframe(codec.read_bytes(path), path=path)
    except IntegrityError as exc:
        _flag(report, path, exc.kind, "bad-frame", str(exc), repair=repair)
        return
    report.verified += 1


def _check_log(path: str, report: FsckReport, *, repair: bool) -> None:
    """Verify an SRA log record by record; repairing rewrites its intact
    records."""
    from repro.storage.sra import check_log

    damage = check_log(path, repair=repair)
    if damage and not repair:
        report.findings.extend(
            Finding(where, codec.KIND_SPECIAL_LINE, "bad-frame", detail)
            for where, detail in damage)
        return
    report.repaired.extend(where for where, _ in damage)
    report.verified += 1


def _check_journal(path: str, report: FsckReport, *, repair: bool) -> None:
    """Verify every sealed line; repairing rewrites the valid subset."""
    try:
        text = codec.read_text(path)
    except IntegrityError as exc:
        _flag(report, path, codec.KIND_JOURNAL_RECORD, "corrupt-record",
              str(exc), repair=repair)
        return
    good_lines: list[str] = []
    bad: list[Finding] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            codec.verify_record(raw, path=path, lineno=lineno)
        except IntegrityError as exc:
            bad.append(Finding(f"{path}:{lineno}", codec.KIND_JOURNAL_RECORD,
                               "corrupt-record", str(exc)))
            continue
        good_lines.append(raw.strip())
    if not bad:
        report.verified += 1
        return
    if repair:
        _rewrite_journal(path, good_lines)
        report.repaired.extend(f.path for f in bad)
        report.verified += 1
    else:
        report.findings.extend(bad)


def _rewrite_journal(path: str, good_lines: list[str]) -> None:
    """Quarantine the damaged journal, reinstate only its valid records."""
    codec.quarantine_file(path)
    blob = ("\n".join(good_lines) + "\n").encode("utf-8") if good_lines \
        else b""
    codec.atomic_write_bytes(path, blob)


def _check_json(path: str, report: FsckReport, *, repair: bool) -> None:
    """Verify ``repro-artifact`` envelopes; other JSON is out of scope."""
    try:
        text = codec.read_text(path)
        head = json.loads(text)
    except (IntegrityError, json.JSONDecodeError) as exc:
        if os.path.basename(os.path.dirname(path)) == "cache":
            report.scanned += 1
            _flag(report, path, codec.KIND_CACHE_ENTRY, "bad-envelope",
                  f"unreadable cache entry: {exc}", repair=repair)
        return
    if not (isinstance(head, dict) and head.get("format") == "repro-artifact"):
        return  # plain JSON (manifest.json etc.): not an integrity artifact
    report.scanned += 1
    try:
        codec.open_json(text, path=path)
    except IntegrityError as exc:
        _flag(report, path, head.get("kind"), "bad-envelope", str(exc),
              repair=repair)
        return
    report.verified += 1
