"""Checksummed artifact codec: every byte the pipeline trusts is framed.

CUDAlign's design leans on disk-resident state surviving multi-hour runs
(special rows, Stage-1 checkpoints, the job journal, the result cache).
This module gives all of those artifacts one wire discipline so that a
flipped bit or a torn write is *detected at read time* instead of
surfacing as a wrong goal match three stages later or a raw
``zipfile``/``json`` traceback.

Three framings, one :class:`~repro.errors.IntegrityError` contract:

* **Binary artifacts** (:func:`frame` / :func:`unframe`) — a fixed
  header ``magic | version | kind | payload length | CRC32 | SHA-256``
  followed by the payload.  The CRC is the cheap first-line check, the
  SHA-256 the authoritative one.  Used for Stage-1 ``.npz``
  checkpoints, binary alignment files and the records of the SRA's
  append-only logs (one frame per special line, back to back;
  :func:`frame_size` finds where each ends).
* **JSON-line records** (:func:`seal_record` / :func:`verify_record`) —
  the appendable job journal (``journal.jsonl``) carries a ``crc``
  field per line, computed over the canonical JSON of the rest of the
  record.  A corrupt *middle* record is therefore distinguishable from
  a merely unknown one.
* **JSON envelopes** (:func:`seal_json` / :func:`open_json`) —
  human-readable artifacts (result-cache entries) stay readable: the
  payload is wrapped with its own SHA-256 over the canonical payload
  encoding.

File I/O goes through :func:`read_bytes` / :func:`read_range` /
:func:`atomic_write_bytes` / :func:`append_bytes` /
:func:`append_journal_record`, which are the interposition points of the
deterministic fault harness (:mod:`repro.integrity.faults`).  A write
is fsync'd only where a recovery or the user reads it back after a
power cut: checkpoints, binary alignments and fsck's rewrites on write,
SRA logs at their run's next checkpoint (:func:`fsync_files`), cache
entries never (a torn one fails its checksum and is recomputed).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from typing import Any

from repro.errors import IntegrityError
from repro.integrity import faults as _faults

#: Frame magic of every binary artifact ("RePro Integrity Artifact").
MAGIC = b"RPIA"
#: Binary frame format version.
FRAME_VERSION = 1
#: Envelope/record format version (JSON framings).
RECORD_VERSION = 1

# magic 4s | version u16 | kind length u16 | payload length u64 |
# CRC32 u32 | SHA-256 32s
_HEADER = struct.Struct("<4sHHQI32s")

# Canonical artifact kind names (the frame is self-describing, so fsck
# can classify any artifact from its header alone).
KIND_SPECIAL_LINE = "special-line"
KIND_CHECKPOINT = "checkpoint"
KIND_CACHE_ENTRY = "cache-entry"
KIND_JOURNAL_RECORD = "journal-record"
KIND_BINARY_ALIGNMENT = "binary-alignment"

#: Directory name corrupt artifacts are moved into by the recovery
#: policies and ``repro fsck --repair``.
QUARANTINE_DIR = "quarantine"


# ------------------------------------------------------------ binary frame
def frame(payload: bytes, kind: str) -> bytes:
    """Wrap ``payload`` in the checksummed binary frame.

    The digests cover the kind bytes *and* the payload, so a flipped bit
    anywhere after the header is caught; every header field is validated
    structurally on read.
    """
    kind_b = kind.encode("ascii")
    body = kind_b + payload
    head = _HEADER.pack(MAGIC, FRAME_VERSION, len(kind_b), len(payload),
                        zlib.crc32(body) & 0xFFFFFFFF,
                        hashlib.sha256(body).digest())
    return head + body


def unframe(blob: bytes, *, expect_kind: str | None = None,
            path: str = "<memory>") -> tuple[str, bytes]:
    """Verify a framed artifact; returns ``(kind, payload)``.

    Raises :class:`IntegrityError` for every way the frame can be wrong:
    truncation, bad magic, unsupported version, kind mismatch, CRC or
    SHA-256 mismatch.
    """
    if len(blob) < _HEADER.size:
        raise IntegrityError(
            f"artifact truncated: {len(blob)} bytes, header needs "
            f"{_HEADER.size}", kind=expect_kind, path=path)
    magic, version, kind_len, payload_len, crc, sha = \
        _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise IntegrityError("bad magic: not a checksummed artifact",
                             kind=expect_kind, path=path)
    if version != FRAME_VERSION:
        raise IntegrityError(f"unsupported artifact frame version {version}",
                             kind=expect_kind, path=path)
    need = _HEADER.size + kind_len + payload_len
    if len(blob) != need:
        raise IntegrityError(
            f"artifact truncated or padded: {len(blob)} bytes, frame "
            f"declares {need}", kind=expect_kind, path=path)
    kind = blob[_HEADER.size:_HEADER.size + kind_len].decode(
        "ascii", errors="replace")
    if expect_kind is not None and kind != expect_kind:
        raise IntegrityError(
            f"artifact kind mismatch: file holds {kind!r}",
            kind=expect_kind, path=path)
    body = blob[_HEADER.size:]
    payload = body[kind_len:]
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if actual_crc != crc:
        raise IntegrityError(
            "artifact CRC32 mismatch", kind=kind, path=path,
            expected=f"{crc:08x}", actual=f"{actual_crc:08x}")
    actual_sha = hashlib.sha256(body).digest()
    if actual_sha != sha:
        raise IntegrityError(
            "artifact SHA-256 mismatch", kind=kind, path=path,
            expected=sha.hex(), actual=actual_sha.hex())
    return kind, payload


def frame_size(blob: bytes, offset: int = 0) -> int | None:
    """Length of the frame whose header starts at ``offset`` in ``blob``.

    ``None`` where no frame header starts there: too few bytes left for
    one, or the magic or version is wrong.  The length is what the header
    declares — :func:`unframe` still has to verify the frame.
    """
    if len(blob) - offset < _HEADER.size:
        return None
    magic, version, kind_len, payload_len, _, _ = _HEADER.unpack_from(
        blob, offset)
    if magic != MAGIC or version != FRAME_VERSION:
        return None
    return _HEADER.size + kind_len + payload_len


# -------------------------------------------------------- JSON-line records
def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def seal_record(record: dict[str, Any]) -> dict[str, Any]:
    """Return ``record`` plus a ``crc`` field over its canonical JSON."""
    crc = zlib.crc32(_canonical(record)) & 0xFFFFFFFF
    return {**record, "crc": f"{crc:08x}"}


def verify_record(raw: str, *, path: str = "<memory>",
                  lineno: int = 0) -> dict[str, Any]:
    """Parse and checksum-verify one sealed JSON line.

    Raises :class:`IntegrityError` when the line is not JSON, not an
    object, unsealed, or fails its CRC.
    """
    where = f"{path}:{lineno}" if lineno else path
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"journal line is not JSON: {exc}",
                             kind=KIND_JOURNAL_RECORD, path=where) from exc
    if not isinstance(obj, dict) or "crc" not in obj:
        raise IntegrityError("journal line carries no checksum",
                             kind=KIND_JOURNAL_RECORD, path=where)
    stored = obj.pop("crc")
    actual = f"{zlib.crc32(_canonical(obj)) & 0xFFFFFFFF:08x}"
    if stored != actual:
        raise IntegrityError("journal record CRC mismatch",
                             kind=KIND_JOURNAL_RECORD, path=where,
                             expected=str(stored), actual=actual)
    return obj


# ----------------------------------------------------------- JSON envelope
def seal_json(payload: Any, kind: str) -> str:
    """Wrap a JSON-safe payload in a readable, checksummed envelope."""
    digest = hashlib.sha256(_canonical(payload)).hexdigest()
    return json.dumps({"format": "repro-artifact",
                       "version": RECORD_VERSION, "kind": kind,
                       "sha256": digest, "payload": payload},
                      indent=2, sort_keys=True) + "\n"


def open_json(text: str, *, expect_kind: str | None = None,
              path: str = "<memory>") -> Any:
    """Verify an envelope written by :func:`seal_json`; returns the payload."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"artifact is not JSON: {exc}",
                             kind=expect_kind, path=path) from exc
    if (not isinstance(obj, dict) or obj.get("format") != "repro-artifact"
            or "payload" not in obj or "sha256" not in obj):
        raise IntegrityError("artifact carries no integrity envelope",
                             kind=expect_kind, path=path)
    if obj.get("version") != RECORD_VERSION:
        raise IntegrityError(
            f"unsupported artifact envelope version {obj.get('version')!r}",
            kind=expect_kind, path=path)
    kind = obj.get("kind")
    if expect_kind is not None and kind != expect_kind:
        raise IntegrityError(f"artifact kind mismatch: file holds {kind!r}",
                             kind=expect_kind, path=path)
    actual = hashlib.sha256(_canonical(obj["payload"])).hexdigest()
    if actual != obj["sha256"]:
        raise IntegrityError("artifact SHA-256 mismatch", kind=kind,
                             path=path, expected=obj["sha256"],
                             actual=actual)
    return obj["payload"]


# -------------------------------------------------------------- file I/O
def read_bytes(path: str | os.PathLike) -> bytes:
    """Read a whole file, through the fault-injection interposition."""
    path = os.fspath(path)
    with open(path, "rb") as handle:
        data = handle.read()
    plan = _faults.active_plan()
    if plan is not None:
        data = plan.on_read(path, data)
    return data


def read_range(path: str | os.PathLike, offset: int, length: int) -> bytes:
    """Read ``length`` bytes at ``offset`` (fewer past the end of the
    file), through the fault-injection interposition."""
    path = os.fspath(path)
    with open(path, "rb") as handle:
        handle.seek(offset)
        data = handle.read(length)
    plan = _faults.active_plan()
    if plan is not None:
        data = plan.on_read(path, data)
    return data


def atomic_write_bytes(path: str | os.PathLike, blob: bytes, *,
                       fsync: bool = True) -> None:
    """Write + fsync + rename, through the fault interposition.

    ``fsync=False`` skips the fsync: the rename is still atomic, and the
    bytes survive a killed process but not a power cut.  Data no
    recovery reads back after a power cut is written that way; data a
    later durable write depends on is flushed by :func:`fsync_files`
    just before that write.

    An injected torn write persists a prefix of ``blob`` and then raises
    (the simulated crash happens *after* the rename, exactly like a
    power cut between the rename and the next fsync barrier).
    """
    path = os.fspath(path)
    crash = None
    plan = _faults.active_plan()
    if plan is not None:
        blob, crash = plan.on_write(path, blob)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(blob)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if crash is not None:
        raise crash


def fsync_files(paths) -> None:
    """Flush files written with ``fsync=False`` to stable storage.

    The barrier in front of a durable write that depends on them.  A
    file already gone (released, quarantined) has nothing to flush.
    """
    for path in paths:
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            continue
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def read_artifact(path: str | os.PathLike,
                  expect_kind: str | None = None) -> bytes:
    """Read and verify a framed artifact file; returns the payload."""
    path = os.fspath(path)
    return unframe(read_bytes(path), expect_kind=expect_kind, path=path)[1]


def write_artifact(path: str | os.PathLike, payload: bytes,
                   kind: str, *, fsync: bool = True) -> None:
    """Atomically write ``payload`` as a framed artifact."""
    atomic_write_bytes(path, frame(payload, kind), fsync=fsync)


def read_text(path: str | os.PathLike) -> str:
    """Read a text artifact; undecodable bytes are integrity damage."""
    path = os.fspath(path)
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"artifact is not UTF-8: {exc}",
                             path=path) from exc


def append_bytes(path: str | os.PathLike, blob: bytes, *,
                 create: bool = False) -> int:
    """Append ``blob`` to a file, through the fault interposition.

    Returns the offset the blob starts at.  ``create=True`` starts the
    file afresh, dropping whatever it held.  Nothing is fsync'd (see
    :func:`fsync_files`) and no handle outlives the call.  An injected
    torn append writes a prefix of ``blob`` and then raises, like a
    process killed in the middle of the write.
    """
    path = os.fspath(path)
    crash = None
    plan = _faults.active_plan()
    if plan is not None:
        blob, crash = plan.on_append(path, blob)
    with open(path, "wb" if create else "ab") as handle:
        offset = handle.tell()
        handle.write(blob)
    if crash is not None:
        raise crash
    return offset


def append_journal_record(path: str | os.PathLike,
                          record: dict[str, Any]) -> None:
    """Append one sealed record line to a JSON-lines journal.

    A killed process may have torn the journal's final line; the append
    first restores the newline terminator so the new record can never
    merge into (and corrupt) the torn one.
    """
    path = os.fspath(path)
    line = json.dumps(seal_record(record), separators=(",", ":"),
                      sort_keys=True)
    data = line.encode("utf-8") + b"\n"
    crash = None
    plan = _faults.active_plan()
    if plan is not None:
        data, crash = plan.on_append(path, data)
    with open(path, "a+b") as handle:
        handle.seek(0, os.SEEK_END)
        if handle.tell() > 0:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        handle.write(data)
    if crash is not None:
        raise crash


# ------------------------------------------------------------- quarantine
def quarantine_file(path: str | os.PathLike, *,
                    root: str | os.PathLike | None = None,
                    label: str | None = None) -> str | None:
    """Move a damaged file into a sibling ``quarantine/`` directory.

    The file is preserved for post-mortem inspection rather than
    deleted; the caller's read path then sees it as absent and falls
    back to recomputation.  ``root`` overrides where the quarantine
    directory lives (defaults to the file's own directory); ``label``
    overrides the quarantined name.  Returns the destination, or
    ``None`` when the file was already gone.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return None
    base = os.fspath(root) if root is not None else os.path.dirname(path)
    dest = _quarantine_dest(
        base, label if label is not None else os.path.basename(path))
    os.replace(path, dest)
    return dest


def quarantine_bytes(data: bytes, *, root: str | os.PathLike,
                     label: str) -> str:
    """Preserve damaged bytes cut out of a larger file (a log record) as
    ``root/quarantine/label``; returns where they were written."""
    dest = _quarantine_dest(os.fspath(root), label)
    with open(dest, "wb") as handle:
        handle.write(data)
    return dest


def _quarantine_dest(base: str, name: str) -> str:
    """A free name for ``name`` in ``base``'s quarantine directory."""
    qdir = os.path.join(base, QUARANTINE_DIR)
    os.makedirs(qdir, exist_ok=True)
    dest = os.path.join(qdir, name)
    serial = 0
    while os.path.exists(dest):
        serial += 1
        dest = os.path.join(qdir, f"{name}.{serial}")
    return dest
