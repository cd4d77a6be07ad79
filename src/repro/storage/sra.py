"""Special Rows Area (SRA): the disk area of Section IV-B.

Stage 1 flushes *special rows* (H and F values, 8 bytes per cell) here;
Stage 2 flushes *special columns* (H and E values).  The store enforces a
byte budget exactly like the paper's ``|SRA|`` constant, exposes the
flush-interval law, and accounts every byte written (the performance model
charges ~13 s/GB of flush traffic, Section V-B).

Lines can be held in memory (the default for scaled-down runs) or written
to disk as little-endian int32 pairs inside a checksummed artifact frame
(:mod:`repro.integrity.codec`), preserving the paper's storage format and
its I/O behaviour while making corruption detectable at read time.  A
disk line is written atomically but not fsync'd;
:meth:`SpecialLineStore.sync` flushes it when a Stage-1 checkpoint is
about to depend on it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from repro.constants import SCORE_DTYPE, SPECIAL_CELL_BYTES
from repro.errors import IntegrityError, StorageError
from repro.integrity import codec

#: Per-store metadata journal of the disk-backed layout (one JSON line per
#: saved special line) — what makes a store recoverable by a new process.
INDEX_NAME = "index.jsonl"


def flush_interval_blocks(m: int, n: int, block_rows: int, sra_bytes: int) -> int:
    """Blocks between consecutive special rows (Section IV-B).

    The paper requires the interval to be at least
    ``ceil(8mn / (alpha*T*|SRA|))`` so the saved rows fit in the SRA;
    candidates are multiples of the block height ``alpha*T``
    (``block_rows``).
    """
    if m <= 0 or n <= 0 or block_rows <= 0:
        raise StorageError("matrix and block dimensions must be positive")
    if sra_bytes <= 0:
        return 0  # flushing disabled: no row fits
    row_bytes = SPECIAL_CELL_BYTES * (n + 1)
    if sra_bytes < row_bytes:
        return 0  # the SRA cannot hold even one special row
    return max(1, math.ceil(SPECIAL_CELL_BYTES * m * n / (block_rows * sra_bytes)))


def special_row_positions(m: int, n: int, block_rows: int, sra_bytes: int) -> list[int]:
    """Row indices Stage 1 will flush: multiples of the block height at the
    flush interval, strictly inside the matrix."""
    interval = flush_interval_blocks(m, n, block_rows, sra_bytes)
    if interval == 0:
        return []
    step = block_rows * interval
    rows = list(range(step, m + 1, step))
    # Never exceed the byte budget even when rounding was generous.
    row_bytes = SPECIAL_CELL_BYTES * (n + 1)
    max_rows = sra_bytes // row_bytes
    return rows[:max_rows]


@dataclass(frozen=True)
class SavedLine:
    """One special row or column.

    ``H`` and ``G`` are the similarity matrix and the *orthogonal* gap
    matrix along the line (F for rows, E for columns), both covering
    ``lo..hi`` inclusive in the orthogonal coordinate.
    """

    axis: str           # "row" or "col"
    position: int       # the row index (axis="row") or column index
    lo: int             # first orthogonal coordinate covered
    H: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.axis not in ("row", "col"):
            raise StorageError(f"invalid line axis {self.axis!r}")
        if self.H.shape != self.G.shape or self.H.ndim != 1:
            raise StorageError("H and G must be 1-D arrays of equal length")

    @property
    def hi(self) -> int:
        return self.lo + self.H.size - 1

    @property
    def nbytes(self) -> int:
        return SPECIAL_CELL_BYTES * self.H.size

    def value_at(self, coord: int) -> tuple[int, int]:
        """(H, G) at an orthogonal coordinate."""
        if not self.lo <= coord <= self.hi:
            raise StorageError(
                f"coordinate {coord} outside saved line [{self.lo}, {self.hi}]")
        k = coord - self.lo
        return int(self.H[k]), int(self.G[k])


class SpecialLineStore:
    """Byte-budgeted store of special rows/columns.

    Namespaces keep each producer's lines separate (e.g. Stage 1's rows vs
    the per-band columns of Stage 2).  With ``directory`` set, every line
    is round-tripped through a raw binary file — the real disk behaviour
    the paper measures; otherwise lines stay in memory.

    A disk-backed store also appends one metadata line per save to
    ``directory/index.jsonl``; passing ``recover=True`` replays that
    journal so a *new process* resuming a crashed run (Stage-1 checkpoint
    restart) sees every line flushed before the crash.

    Line files are not fsync'd as they are written.  The store keeps the
    lines it wrote, or re-registered on recovery, since its last
    :meth:`sync`; Stage 1 calls that barrier just before each checkpoint,
    so a checkpoint never outlives the rows it resumes from.
    """

    def __init__(self, capacity_bytes: int, directory: str | os.PathLike | None = None,
                 *, tracer=None, recover: bool = False):
        if capacity_bytes < 0:
            raise StorageError("capacity must be non-negative")
        self.capacity_bytes = int(capacity_bytes)
        self.directory = os.fspath(directory) if directory is not None else None
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
        self.bytes_used = 0
        self.bytes_written = 0  # lifetime flush traffic (perf model input)
        self.bytes_read = 0     # lifetime load traffic
        #: Number of lines re-registered from the on-disk index journal.
        self.recovered_lines = 0
        #: Corrupt artifacts detected (and quarantined) during recovery.
        self.corrupt_lines = 0
        #: Optional :class:`repro.telemetry.Tracer`; when set, every flush
        #: and load is wrapped in an ``sra.flush`` / ``sra.load`` span.
        self.tracer = tracer
        self._lines: dict[tuple[str, int], SavedLine] = {}
        #: Disk lines not yet fsync'd (written or recovered since sync()).
        self._unsynced: set[tuple[str, int]] = set()
        if recover and self.directory is not None:
            self._recover()

    def save(self, namespace: str, line: SavedLine) -> None:
        """Store a line, enforcing the byte budget."""
        if self.tracer is not None:
            with self.tracer.span("sra.flush", namespace=namespace,
                                  position=line.position,
                                  nbytes=line.nbytes):
                self._save(namespace, line)
            return
        self._save(namespace, line)

    def _save(self, namespace: str, line: SavedLine) -> None:
        key = (namespace, line.position)
        if key in self._lines:
            raise StorageError(f"line {key} already saved")
        if self.bytes_used + line.nbytes > self.capacity_bytes:
            raise StorageError(
                f"SRA budget exceeded: {self.bytes_used + line.nbytes} > "
                f"{self.capacity_bytes} bytes")
        if self.directory is not None:
            payload = np.empty(2 * line.H.size, dtype=SCORE_DTYPE)
            payload[0::2] = line.H
            payload[1::2] = line.G
            path = self._path(namespace, line.position)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            codec.write_artifact(path, payload.tobytes(),
                                 codec.KIND_SPECIAL_LINE, fsync=False)
            self._append_index(namespace, line)
            self._unsynced.add(key)
        self._lines[key] = line
        self.bytes_used += line.nbytes
        self.bytes_written += line.nbytes

    def load(self, namespace: str, position: int) -> SavedLine:
        key = (namespace, position)
        try:
            meta = self._lines[key]
        except KeyError:
            raise StorageError(f"no special line saved at {key}") from None
        self.bytes_read += meta.nbytes
        if self.tracer is not None:
            with self.tracer.span("sra.load", namespace=namespace,
                                  position=position, nbytes=meta.nbytes):
                return self._load(meta, namespace, position)
        return self._load(meta, namespace, position)

    def _load(self, meta: SavedLine, namespace: str, position: int) -> SavedLine:
        if self.directory is None:
            return meta
        path = self._path(namespace, position)
        try:
            raw = codec.read_artifact(path, codec.KIND_SPECIAL_LINE)
        except FileNotFoundError as exc:
            raise IntegrityError(
                "special line payload file is missing",
                kind=codec.KIND_SPECIAL_LINE, path=path) from exc
        payload = np.frombuffer(raw, dtype=SCORE_DTYPE)
        if payload.size != 2 * meta.H.size:
            raise IntegrityError(
                f"special line holds {payload.size} values, index declares "
                f"{2 * meta.H.size}", kind=codec.KIND_SPECIAL_LINE, path=path)
        return SavedLine(axis=meta.axis, position=meta.position, lo=meta.lo,
                         H=payload[0::2].copy(), G=payload[1::2].copy())

    def sync(self) -> None:
        """Barrier: fsync every line written or recovered since the last."""
        codec.fsync_files(self._path(*key) for key in self._unsynced)
        self._unsynced.clear()

    def positions(self, namespace: str) -> list[int]:
        """Sorted line positions stored under a namespace."""
        return sorted(pos for ns, pos in self._lines if ns == namespace)

    def has(self, namespace: str, position: int) -> bool:
        """O(1) membership probe.

        Stage 1 asks this per special row when resuming from a
        checkpoint, so rows the dead run already flushed are not
        re-written (the budget would reject the duplicate anyway).
        """
        return (namespace, position) in self._lines

    def release(self, namespace: str) -> int:
        """Drop every line of a namespace, freeing budget; returns bytes freed.

        The pipeline releases each band's special columns once Stage 3 has
        consumed them, which is what keeps total disk usage O(m + n).
        """
        freed = 0
        released = [k for k in self._lines if k[0] == namespace]
        for key in released:
            line = self._lines.pop(key)
            self._unsynced.discard(key)
            freed += line.nbytes
            if self.directory is not None:
                path = self._path(*key)
                if os.path.exists(path):
                    os.remove(path)
        if released and self.directory is not None:
            # Tombstone the namespace so the index journal replays (and
            # fsck cross-references) to the files actually on disk.
            codec.append_journal_record(
                self._index_path(), {"ns": namespace, "released": True})
        self.bytes_used -= freed
        return freed

    def quarantine(self, namespace: str, position: int) -> str | None:
        """Drop a corrupt line: deregister it and preserve the damaged file.

        The degrade-don't-die primitive: after a load raises
        :class:`IntegrityError`, the consumer quarantines the line and
        recomputes across the gap (Stage 2 widens its band, Stage 3 falls
        back to the next surviving special column).  Returns where the
        damaged file was moved, or ``None`` for in-memory stores.
        """
        key = (namespace, position)
        line = self._lines.pop(key, None)
        if line is not None:
            self.bytes_used -= line.nbytes
        self._unsynced.discard(key)
        self.corrupt_lines += 1
        if self.directory is None:
            return None
        dest = codec.quarantine_file(
            self._path(namespace, position), root=self.directory,
            label=f"{namespace.replace('/', '_')}_{position}.bin")
        # Tombstone the line: its index record no longer promises a
        # payload, so a later fsck sees a consistent tree.
        codec.append_journal_record(
            self._index_path(),
            {"ns": namespace, "pos": position, "dropped": True})
        return dest

    def _path(self, namespace: str, position: int) -> str:
        assert self.directory is not None
        safe = namespace.replace("/", "_")
        return os.path.join(self.directory, safe, f"{position}.bin")

    # ------------------------------------------------------------ recovery
    def _index_path(self) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, INDEX_NAME)

    def _append_index(self, namespace: str, line: SavedLine) -> None:
        record = {"ns": namespace, "pos": line.position, "axis": line.axis,
                  "lo": line.lo, "count": int(line.H.size)}
        codec.append_journal_record(self._index_path(), record)

    def _recover(self) -> None:
        """Re-register lines a previous process flushed to this directory.

        Entries whose payload file has since been released are skipped, as
        are duplicates (a re-run appends a fresh index entry over the same
        payload path).  A corrupt index record or payload artifact is
        quarantined and counted, never fatal: a lost special line only
        costs recomputation.  Budget accounting resumes where the dead
        process left off; ``bytes_written`` stays 0 — recovery is not
        flush traffic.
        """
        index = self._index_path()
        if not os.path.exists(index):
            return
        for lineno, raw in enumerate(
                codec.read_text(index).splitlines(), start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = codec.verify_record(raw, path=index, lineno=lineno)
            except IntegrityError:
                # The torn/corrupt record's payload (if any) is orphaned;
                # fsck reports it, recovery just loses that one line.
                self.corrupt_lines += 1
                continue
            if rec.get("released"):
                # Namespace tombstone: everything saved so far is gone.
                for key in [k for k in self._lines if k[0] == rec["ns"]]:
                    dead = self._lines.pop(key)
                    self.bytes_used -= dead.nbytes
                    self.recovered_lines -= 1
                continue
            key = (rec["ns"], rec["pos"])
            if rec.get("dropped"):
                dead = self._lines.pop(key, None)
                if dead is not None:
                    self.bytes_used -= dead.nbytes
                    self.recovered_lines -= 1
                continue
            path = self._path(*key)
            if key in self._lines or not os.path.exists(path):
                continue
            try:
                payload = np.frombuffer(
                    codec.read_artifact(path, codec.KIND_SPECIAL_LINE),
                    dtype=SCORE_DTYPE)
                if payload.size != 2 * rec["count"]:
                    raise IntegrityError(
                        f"special line holds {payload.size} values, index "
                        f"declares {2 * rec['count']}",
                        kind=codec.KIND_SPECIAL_LINE, path=path)
            except IntegrityError:
                self.corrupt_lines += 1
                codec.quarantine_file(path, root=self.directory)
                continue
            line = SavedLine(axis=rec["axis"], position=rec["pos"],
                             lo=rec["lo"], H=payload[0::2].copy(),
                             G=payload[1::2].copy())
            self._lines[key] = line
            self.bytes_used += line.nbytes
            self.recovered_lines += 1
        # The dead process may have left any of them in the page cache
        # only: the next checkpoint's barrier must flush them too.
        self._unsynced = set(self._lines)
