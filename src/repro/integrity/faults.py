"""Deterministic storage fault injection.

The chaos half of the integrity layer: a :class:`FaultPlan` interposes
on every artifact read/write/append the codec performs — whole files,
single SRA log records read back, records appended to a log — and
injects bit-flips, truncation, torn renames and appends, missing files,
``ENOSPC`` and slow I/O, chosen by *seed + site pattern*, so a failing
chaos run replays bit-for-bit.  This replaces the private-attribute
surgery tests used to do (``store._lines[...] = ...``) with a supported
public surface.

Two complementary entry points:

* :func:`inject` — activate a plan for a ``with`` block; every matching
  I/O operation inside (including in forked worker processes) is
  faulted.  This exercises the *online* detection and recovery paths.
* :func:`corrupt_file` — damage an artifact already on disk.  This is
  what ``repro fsck`` smoke tests and kill-then-restart scenarios use,
  where the corruption happens while no process is running.

:func:`tamper_special_line` covers the third corruption class: damage
*past* the storage checksums (a flipped bit in device memory or on the
bus).  Checksums cannot see it, so the pipeline's goal-match invariants
must — the tests keep exercising that property through this hook, on
in-memory stores (a disk store holds no arrays to tamper with).
"""

from __future__ import annotations

import errno
import fnmatch
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ConfigError

#: Fault kinds, by the operation they apply to.
READ_FAULTS = frozenset({"bitflip", "truncate", "missing", "slow"})
WRITE_FAULTS = frozenset({"bitflip", "truncate", "torn", "enospc", "slow"})
_OPS = ("read", "write", "append")


class InjectedFault(RuntimeError):
    """The simulated crash a torn write ends in (never a real error)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault site: which operation, where, what, and when.

    Attributes:
        site: ``fnmatch`` glob matched against the ``/``-normalized
            artifact path *and* its basename (``"*/sra/stage1_rows.lines"``
            or just ``"*.ckpt"``).
        fault: ``bitflip`` | ``truncate`` | ``missing`` | ``slow`` for
            reads; ``bitflip`` | ``truncate`` | ``torn`` | ``enospc`` |
            ``slow`` for writes/appends.
        op: ``read``, ``write`` or ``append``.
        skip: matching operations to let through before injecting.
        times: how many operations to fault once armed.
        fraction: surviving prefix for ``truncate``/``torn``.
    """

    site: str
    fault: str
    op: str = "read"
    skip: int = 0
    times: int = 1
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigError(f"unknown fault op {self.op!r}")
        valid = READ_FAULTS if self.op == "read" else WRITE_FAULTS
        if self.fault not in valid:
            raise ConfigError(
                f"fault {self.fault!r} not valid for op {self.op!r} "
                f"(choose from {sorted(valid)})")
        if self.times < 1 or self.skip < 0:
            raise ConfigError("times must be >= 1 and skip >= 0")
        if not 0.0 <= self.fraction < 1.0:
            raise ConfigError("fraction must be in [0, 1)")


@dataclass(frozen=True)
class Injection:
    """Ledger entry: one fault actually delivered."""

    op: str
    fault: str
    path: str


class FaultPlan:
    """A set of :class:`FaultSpec` sites sharing one deterministic seed.

    The plan is stateful: each spec counts the operations it matched, so
    ``skip``/``times`` windows are exact, and every delivered fault is
    recorded in :attr:`injections` (what the chaos tests assert on).
    Thread-safe; state crosses ``fork`` into worker processes but does
    not flow back — worker-side assertions should use on-disk effects.
    """

    def __init__(self, *specs: FaultSpec, seed: int = 0,
                 slow_seconds: float = 0.005):
        self.specs = tuple(specs)
        self.seed = seed
        self.slow_seconds = slow_seconds
        self.injections: list[Injection] = []
        self._seen = [0] * len(self.specs)
        self._lock = threading.Lock()

    # ------------------------------------------------------------ matching
    def _armed_spec(self, op: str, path: str) -> FaultSpec | None:
        norm = path.replace(os.sep, "/")
        base = os.path.basename(norm)
        for idx, spec in enumerate(self.specs):
            if spec.op != op:
                continue
            if not (fnmatch.fnmatch(norm, spec.site)
                    or fnmatch.fnmatch(base, spec.site)):
                continue
            with self._lock:
                seen = self._seen[idx]
                self._seen[idx] += 1
            if spec.skip <= seen < spec.skip + spec.times:
                return spec
        return None

    def _rng(self, path: str) -> random.Random:
        with self._lock:
            salt = len(self.injections)
        return random.Random(f"{self.seed}:{path}:{salt}")

    def _record(self, op: str, spec: FaultSpec, path: str) -> None:
        with self._lock:
            self.injections.append(Injection(op, spec.fault, path))

    # --------------------------------------------------------------- hooks
    def on_read(self, path: str, data: bytes) -> bytes:
        spec = self._armed_spec("read", path)
        if spec is None:
            return data
        rng = self._rng(path)
        self._record("read", spec, path)
        if spec.fault == "missing":
            raise FileNotFoundError(
                errno.ENOENT, "injected missing file", path)
        if spec.fault == "slow":
            time.sleep(self.slow_seconds)
            return data
        if spec.fault == "truncate":
            return data[:int(len(data) * spec.fraction)]
        return flip_bit(data, rng)

    def _mutate_out(self, op: str, path: str, data: bytes
                    ) -> tuple[bytes, Exception | None]:
        spec = self._armed_spec(op, path)
        if spec is None:
            return data, None
        rng = self._rng(path)
        self._record(op, spec, path)
        if spec.fault == "enospc":
            raise OSError(errno.ENOSPC, "injected: no space left on device",
                          path)
        if spec.fault == "slow":
            time.sleep(self.slow_seconds)
            return data, None
        if spec.fault == "truncate":
            return data[:int(len(data) * spec.fraction)], None
        if spec.fault == "torn":
            return (data[:int(len(data) * spec.fraction)],
                    InjectedFault(f"injected torn write of {path}"))
        return flip_bit(data, rng), None

    def on_write(self, path: str, data: bytes
                 ) -> tuple[bytes, Exception | None]:
        return self._mutate_out("write", path, data)

    def on_append(self, path: str, data: bytes
                  ) -> tuple[bytes, Exception | None]:
        return self._mutate_out("append", path, data)


# ------------------------------------------------------------- activation
_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The plan the codec's I/O helpers currently consult, if any."""
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


# -------------------------------------------------------- offline helpers
def flip_bit(data: bytes, rng: random.Random) -> bytes:
    """Flip one deterministic bit of ``data`` (no-op on empty input)."""
    if not data:
        return data
    pos = rng.randrange(len(data))
    mutated = bytearray(data)
    mutated[pos] ^= 1 << rng.randrange(8)
    return bytes(mutated)


def corrupt_file(path: str | os.PathLike, fault: str = "bitflip", *,
                 seed: int = 0, fraction: float = 0.5) -> None:
    """Damage an artifact already on disk (offline corruption).

    ``fault`` is ``bitflip`` (one seed-chosen bit), ``truncate`` (keep a
    prefix), ``garbage`` (replace the content with seed-chosen noise of
    the same length), ``empty`` (zero-length file) or ``delete``.
    """
    path = os.fspath(path)
    if fault == "delete":
        os.remove(path)
        return
    with open(path, "rb") as handle:
        data = handle.read()
    rng = random.Random(f"{seed}:{path}")
    if fault == "bitflip":
        data = flip_bit(data, rng)
    elif fault == "truncate":
        data = data[:int(len(data) * fraction)]
    elif fault == "garbage":
        data = bytes(rng.randrange(256) for _ in range(max(1, len(data))))
    elif fault == "empty":
        data = b""
    else:
        raise ConfigError(f"unknown offline fault {fault!r}")
    with open(path, "wb") as handle:
        handle.write(data)


@dataclass(frozen=True)
class _Tampered:
    """Bookkeeping for :func:`tamper_special_line` (test introspection)."""

    namespace: str
    position: int
    delta: int = field(default=0)


def tamper_special_line(store, namespace: str, position: int,
                        delta: int = -10_007) -> _Tampered:
    """Shift every value of an in-memory special line by ``delta``.

    Simulates corruption *past* the storage checksums — a bit flipped in
    device memory or on the bus after a verified read.  The store's
    codec cannot catch this by construction; the pipeline's goal-match
    invariants must.  Public chaos hook superseding the old test-only
    private-map surgery.

    Only in-memory stores hold the arrays it replaces: on a disk-backed
    store (``store.directory`` set) it raises :class:`ConfigError` —
    damage a disk line through its log instead (:func:`inject`,
    :func:`corrupt_file`).
    """
    from repro.storage.sra import SavedLine, _log_name

    if store.directory is not None:
        raise ConfigError(
            "tamper_special_line needs an in-memory store; a disk-backed "
            "store keeps its lines in its logs")
    line = store.load(namespace, position)
    store._lines[_log_name(namespace)][position] = SavedLine(
        axis=line.axis, position=line.position, lo=line.lo,
        H=line.H + np.int32(delta), G=line.G + np.int32(delta))
    return _Tampered(namespace, position, delta)
