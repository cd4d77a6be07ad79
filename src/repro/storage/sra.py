"""Special Rows Area (SRA): the disk area of Section IV-B.

Stage 1 flushes *special rows* (H and F values, 8 bytes per cell) here;
Stage 2 flushes *special columns* (H and E values).  The store enforces a
byte budget exactly like the paper's ``|SRA|`` constant, exposes the
flush-interval law, and accounts every byte written (the performance model
charges ~13 s/GB of flush traffic, Section V-B).

Lines can be held in memory (the default for scaled-down runs) or
appended to disk, where each namespace is one append-only log:
``sra/stage1_rows.lines`` for Stage 1's rows, ``sca/stage2_band<k>.lines``
for each Stage-2 band's columns (the namespace with ``/`` spelled ``_``,
plus :data:`LOG_SUFFIX`).  A log and its directory are created at the
namespace's first save, as the paper's sweep drains rows into one area.
Each record is a checksummed ``special-line`` artifact frame
(:mod:`repro.integrity.codec`) whose payload is a small header (axis,
position, lo, count) followed by the line's H and G values as
interleaved int32 pairs, so corruption is detected at read time and the
log alone says which lines it holds.

Records are not fsync'd as they are appended;
:meth:`SpecialLineStore.sync` flushes the logs when a Stage-1 checkpoint
is about to depend on them, which makes both the lines and their
registration durable.  ``recover=True`` rebuilds a store from its logs,
and :func:`check_log` is what ``repro fsck`` verifies and repairs a log
with: this module is the only one that knows the layout.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.constants import SCORE_DTYPE, SPECIAL_CELL_BYTES
from repro.errors import IntegrityError, StorageError
from repro.integrity import codec

#: File suffix of a namespace's append-only log.
LOG_SUFFIX = ".lines"

# A record's payload header: axis, position, lo, count (values per array).
_HEAD = struct.Struct("<3sxqqq")
_AXES = {b"row": "row", b"col": "col"}
# The axis of a void record: the all-zero stand-in written over a damaged
# record, so the log keeps its length and every record after it.
_VOID_AXIS = bytes(3)
# The shortest void record (frame overhead plus the payload header).
_VOID_MIN = len(codec.frame(b"", codec.KIND_SPECIAL_LINE)) + _HEAD.size
# A verified line record: its (axis, position, lo, count) and its
# interleaved H/G values.
_Record = tuple[tuple[str, int, int, int], np.ndarray]


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


@dataclass(frozen=True)
class _Slot:
    """A disk line: its metadata and where its record sits in the log."""

    axis: str
    position: int
    lo: int
    count: int
    offset: int
    length: int

    @property
    def nbytes(self) -> int:
        return SPECIAL_CELL_BYTES * self.count


class SpecialLineStore:
    """Byte-budgeted store of special rows/columns.

    Namespaces keep each producer's lines separate (e.g. Stage 1's rows vs
    the per-band columns of Stage 2); on disk a namespace is named by its
    log, so ``a/b`` and ``a_b`` are one namespace.  With ``directory``
    set, every line is appended to its namespace's log — the real disk
    behaviour the paper measures — and the store keeps only each line's
    metadata and record offset; otherwise lines stay in memory.

    A store creates each log afresh at its namespace's first save, so a
    run never mixes its lines with a dead run's.  ``recover=True`` instead
    continues the logs already in ``directory``: it re-registers every
    intact record, so a *new process* resuming a crashed run (Stage-1
    checkpoint restart) sees every line flushed before the crash.

    Logs are not fsync'd as they are appended.  The store keeps the logs
    it appended to, or recovered, since its last :meth:`sync`; Stage 1
    calls that barrier just before each checkpoint, so a checkpoint never
    outlives the rows it resumes from.
    """

    def __init__(self, capacity_bytes: int, directory: str | os.PathLike | None = None,
                 *, tracer=None, recover: bool = False):
        if capacity_bytes < 0:
            raise StorageError("capacity must be non-negative")
        self.capacity_bytes = int(capacity_bytes)
        self.directory = os.fspath(directory) if directory is not None else None
        self.bytes_used = 0
        self.bytes_written = 0  # lifetime flush traffic (perf model input)
        self.bytes_read = 0     # lifetime load traffic
        #: Number of lines re-registered from the logs on recovery.
        self.recovered_lines = 0
        #: Damaged lines dropped: found by recovery, or quarantined by a
        #: consumer after a failed load.
        self.corrupt_lines = 0
        #: Optional :class:`repro.telemetry.Tracer`; when set, every flush
        #: and load is wrapped in an ``sra.flush`` / ``sra.load`` span.
        self.tracer = tracer
        #: Lines by namespace (log name), then position: a SavedLine in
        #: memory, a _Slot on disk.  On disk a namespace is here from the
        #: moment this store created or recovered its log.
        self._lines: dict[str, dict[int, SavedLine | _Slot]] = {}
        #: Logs appended to or recovered since the last sync().
        self._unsynced: set[str] = set()
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
        name = _log_name(namespace)
        lines = self._lines.get(name)
        if lines is not None and line.position in lines:
            raise StorageError(
                f"line {(namespace, line.position)} already saved")
        if self.bytes_used + line.nbytes > self.capacity_bytes:
            raise StorageError(
                f"SRA budget exceeded: {self.bytes_used + line.nbytes} > "
                f"{self.capacity_bytes} bytes")
        entry: SavedLine | _Slot = line
        if self.directory is not None:
            record = _encode(line)
            path = self._log_path(name)
            if lines is None:
                os.makedirs(self.directory, exist_ok=True)
            offset = codec.append_bytes(path, record, create=lines is None)
            self._unsynced.add(path)
            entry = _Slot(line.axis, line.position, line.lo, line.H.size,
                          offset, len(record))
        self._lines.setdefault(name, {})[line.position] = entry
        self.bytes_used += line.nbytes
        self.bytes_written += line.nbytes

    def load(self, namespace: str, position: int) -> SavedLine:
        name = _log_name(namespace)
        try:
            entry = self._lines[name][position]
        except KeyError:
            raise StorageError(
                f"no special line saved at {(namespace, position)}") from None
        self.bytes_read += entry.nbytes
        if self.tracer is not None:
            with self.tracer.span("sra.load", namespace=namespace,
                                  position=position, nbytes=entry.nbytes):
                return self._load(name, entry)
        return self._load(name, entry)

    def _load(self, name: str, entry: SavedLine | _Slot) -> SavedLine:
        if isinstance(entry, SavedLine):
            return entry
        path = self._log_path(name)
        where = f"{path}@{entry.offset}"
        try:
            blob = codec.read_range(path, entry.offset, entry.length)
        except FileNotFoundError as exc:
            raise IntegrityError(
                "special line log is missing",
                kind=codec.KIND_SPECIAL_LINE, path=path) from exc
        record = _decode(blob, where)
        head = (entry.axis, entry.position, entry.lo, entry.count)
        if record is None or record[0] != head:
            raise IntegrityError(
                f"log record does not hold {entry.axis} {entry.position} "
                f"(lo {entry.lo}, {entry.count} values)",
                kind=codec.KIND_SPECIAL_LINE, path=where)
        values = record[1]
        return SavedLine(axis=entry.axis, position=entry.position,
                         lo=entry.lo, H=values[0::2].copy(),
                         G=values[1::2].copy())

    def sync(self) -> None:
        """Barrier: fsync every log appended to or recovered since the last."""
        codec.fsync_files(sorted(self._unsynced))
        self._unsynced.clear()

    def positions(self, namespace: str) -> list[int]:
        """Sorted line positions stored under a namespace."""
        return sorted(self._lines.get(_log_name(namespace), ()))

    def has(self, namespace: str, position: int) -> bool:
        """O(1) membership probe.

        Stage 1 asks this per special row when resuming from a
        checkpoint, so rows the dead run already flushed are not
        re-written (the budget would reject the duplicate anyway).
        """
        return position in self._lines.get(_log_name(namespace), ())

    def release(self, namespace: str) -> int:
        """Drop every line of a namespace, freeing budget; returns bytes freed.

        The pipeline releases each band's special columns once Stage 3 has
        consumed them, which is what keeps total disk usage O(m + n).  On
        disk the namespace's log is unlinked.
        """
        name = _log_name(namespace)
        freed = sum(entry.nbytes
                    for entry in self._lines.pop(name, {}).values())
        if self.directory is not None:
            path = self._log_path(name)
            self._unsynced.discard(path)
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        self.bytes_used -= freed
        return freed

    def quarantine(self, namespace: str, position: int) -> str | None:
        """Drop a corrupt line: deregister it and preserve its damaged bytes.

        The degrade-don't-die primitive: after a load raises
        :class:`IntegrityError`, the consumer quarantines the line and
        recomputes across the gap (Stage 2 widens its band, Stage 3 falls
        back to the next surviving special column).  On disk the record's
        bytes are copied under ``quarantine/`` and taken out of the log
        (see :func:`_excise`), so neither a later recovery nor fsck counts
        them again.  Returns where the bytes were copied, or ``None`` for
        in-memory stores and lines with nothing left on disk.
        """
        name = _log_name(namespace)
        entry = self._lines.get(name, {}).pop(position, None)
        self.corrupt_lines += 1
        if entry is None:
            return None
        self.bytes_used -= entry.nbytes
        if not isinstance(entry, _Slot):
            return None
        path = self._log_path(name)
        dest = _excise(path, entry.offset, entry.length, root=self.directory)
        if dest is not None:
            self._unsynced.add(path)
        return dest

    def _log_path(self, name: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, name + LOG_SUFFIX)

    def _recover(self) -> None:
        """Re-register the lines a previous process appended to the logs.

        A damaged record is counted in :attr:`corrupt_lines` and excised
        (quarantined, then voided or, as a torn tail, cut off so later
        appends follow the last intact record), never fatal: a lost
        special line only costs recomputation.  Of two records for one
        position the first is kept.  Budget accounting resumes where the
        dead process left off; ``bytes_written`` stays 0 — recovery is
        not flush traffic.
        """
        try:
            names = sorted(os.listdir(self.directory))
        except FileNotFoundError:
            return
        for filename in names:
            if not filename.endswith(LOG_SUFFIX):
                continue
            name = filename[:-len(LOG_SUFFIX)]
            path = self._log_path(name)
            slots, damage = _scan(codec.read_bytes(path), path)
            for offset, length, _ in damage:
                self.corrupt_lines += 1
                _excise(path, offset, length, root=self.directory)
            lines = self._lines.setdefault(name, {})
            for slot in slots:
                if slot.position not in lines:
                    lines[slot.position] = slot
                    self.bytes_used += slot.nbytes
                    self.recovered_lines += 1
            # The dead process may have left the log in the page cache
            # only: the next checkpoint's barrier must flush it too.
            self._unsynced.add(path)


def check_log(path: str | os.PathLike, *, repair: bool = False
              ) -> list[tuple[str, str]]:
    """Verify a namespace log record by record (``repro fsck``).

    Returns ``(where, detail)`` for each damaged region, ``where`` being
    ``<path>@<offset>``.  ``repair=True`` moves a damaged log under
    ``quarantine/`` and rewrites it with only its intact line records —
    exactly the lines recovery would have honoured.
    """
    path = os.fspath(path)
    data = codec.read_bytes(path)
    slots, damage = _scan(data, path)
    if damage and repair:
        kept = b"".join(data[s.offset:s.offset + s.length] for s in slots)
        codec.quarantine_file(path)
        codec.atomic_write_bytes(path, kept)
    return [(f"{path}@{offset}", detail) for offset, _, detail in damage]


# ------------------------------------------------------------ log layout
def _log_name(namespace: str) -> str:
    return namespace.replace("/", "_")


def _encode(line: SavedLine) -> bytes:
    payload = np.empty(2 * line.H.size, dtype=SCORE_DTYPE)
    payload[0::2] = line.H
    payload[1::2] = line.G
    head = _HEAD.pack(line.axis.encode("ascii"), line.position, line.lo,
                      line.H.size)
    return codec.frame(head + payload.tobytes(), codec.KIND_SPECIAL_LINE)


def _decode(blob: bytes, where: str) -> _Record | None:
    """Verify one record: what it holds (the values are a read-only view
    of ``blob``), or ``None`` for a void record."""
    _, body = codec.unframe(blob, expect_kind=codec.KIND_SPECIAL_LINE,
                            path=where)
    if len(body) >= _HEAD.size:
        axis, position, lo, count = _HEAD.unpack_from(body)
        if axis == _VOID_AXIS:
            return None
        if (axis in _AXES
                and len(body) == _HEAD.size + SPECIAL_CELL_BYTES * count):
            values = np.frombuffer(body, dtype=SCORE_DTYPE,
                                   offset=_HEAD.size)
            return (_AXES[axis], position, lo, count), values
    raise IntegrityError("special line record has a malformed header",
                         kind=codec.KIND_SPECIAL_LINE, path=where)


def _record_at(data: bytes, offset: int, path: str
               ) -> tuple[int, _Record | None]:
    """Verify the record starting at ``offset``: its length and what
    :func:`_decode` makes of it."""
    size = codec.frame_size(data, offset)
    if size is None or offset + size > len(data):
        raise IntegrityError("no complete record starts here",
                             kind=codec.KIND_SPECIAL_LINE,
                             path=f"{path}@{offset}")
    return size, _decode(data[offset:offset + size], f"{path}@{offset}")


def _scan(data: bytes, path: str
          ) -> tuple[list[_Slot], list[tuple[int, int, str]]]:
    """Walk the bytes of a log: its intact line records and its damaged
    regions.

    A damaged region runs from a record that fails verification to the
    next offset where an intact record (a line or a void) starts, found
    by its frame magic — so one damaged record never hides the ones after
    it — or to the end of the log (a torn tail).  Each region is
    ``(offset, length, detail)``.
    """
    slots: list[_Slot] = []
    damage: list[tuple[int, int, str]] = []
    offset = 0
    while offset < len(data):
        try:
            length, record = _record_at(data, offset, path)
        except IntegrityError as exc:
            end = _next_record(data, offset + 1, path)
            damage.append((offset, end - offset, str(exc)))
            offset = end
            continue
        if record is not None:
            slots.append(_Slot(*record[0], offset, length))
        offset += length
    return slots, damage


def _next_record(data: bytes, start: int, path: str) -> int:
    """Offset of the first intact record at or after ``start`` (the end
    of ``data`` when none is left)."""
    at = data.find(codec.MAGIC, start)
    while at != -1:
        try:
            _record_at(data, at, path)
            return at
        except IntegrityError:
            at = data.find(codec.MAGIC, at + 1)
    return len(data)


def _excise(path: str, offset: int, length: int, *, root: str
            ) -> str | None:
    """Take a damaged region out of a log, preserving its bytes first.

    The bytes still on disk are copied to
    ``root/quarantine/<log name>@<offset>``.  A region reaching the end
    of the log is cut off, so the next append follows the last intact
    record; any other is overwritten in place by a void record of the
    same length, so the records after it keep their offsets.  (A region too short to hold a void — only hand-edited logs
    have one — stays as it is.)  Returns the quarantined copy, or
    ``None`` when nothing of the region is left on disk.
    """
    try:
        with open(path, "r+b") as handle:
            size = handle.seek(0, os.SEEK_END)
            if offset >= size:
                return None
            handle.seek(offset)
            damaged = handle.read(length)
            dest = codec.quarantine_bytes(
                damaged, root=root,
                label=f"{os.path.basename(path)}@{offset}")
            if offset + len(damaged) >= size:
                handle.truncate(offset)
            elif len(damaged) >= _VOID_MIN:
                handle.seek(offset)
                handle.write(codec.frame(
                    bytes(len(damaged) - _VOID_MIN + _HEAD.size),
                    codec.KIND_SPECIAL_LINE))
            return dest
    except FileNotFoundError:
        return None
