"""Stage-1 checkpointing.

At paper scale Stage 1 runs for ~18 hours (97% of the pipeline), so crash
recovery matters.  A checkpoint is the sweep's O(n) linear-space state
(current H/E/F rows, best cell, row counter) serialized as an ``.npz``
inside a checksummed artifact frame, written atomically and fsync'd.
Special rows are not fsync'd when they are flushed to the SRA; the
``barrier`` Stage 1 passes makes every row flushed so far durable just
before the checkpoint's own write, so resuming finds them and
re-processes at most ``checkpoint_every_rows`` rows.

A corrupt or torn checkpoint raises :class:`~repro.errors.IntegrityError`
(a :class:`~repro.errors.StorageError`), never a raw ``zipfile`` or
``OSError`` traceback — Stage 1 catches it and falls back to a fresh
sweep, so a bad block costs wall-clock, not the run.

The file records matrix state, not schedule: it is the
:class:`~repro.align.rowscan.RowSweeper`'s ``state_dict``, and
``load_state`` restores it on any sweep of the same matrix.  A pruning
sweep's snapshot also carries its window and lower bound, so a resumed
run prunes exactly as the interrupted one would have; a version-1
checkpoint, which predates pruning, resumes as a full window.
"""

from __future__ import annotations

import io
import os
import zipfile

import numpy as np

from repro.errors import IntegrityError, StorageError
from repro.integrity import codec
from repro.align.rowscan import RowSweeper

#: Format version stamped into every checkpoint.  Version 2 added
#: ``cells_skipped`` and a pruning sweep's ``window`` and ``bound``.
CHECKPOINT_VERSION = 2
#: Versions :func:`load_checkpoint` reads.
_READABLE_VERSIONS = (1, 2)
#: Keys every checkpoint holds, and keys only some do.
_REQUIRED = ("i", "cells", "H", "E", "F", "best", "best_i", "best_j")
_OPTIONAL = ("cells_skipped", "window", "bound")


def save_checkpoint(path: str | os.PathLike, sweeper: RowSweeper,
                    m: int, n: int, *, tracer=None, barrier=None) -> None:
    """Durably persist the sweep state (write + fsync + rename).

    ``barrier`` (optional, no arguments) runs just before the write,
    inside the ``checkpoint.save`` span: it makes durable whatever the
    checkpoint resumes from (Stage 1 passes ``SpecialLineStore.sync``).
    """
    if tracer is not None:
        with tracer.span("checkpoint.save", row=sweeper.i, m=m, n=n):
            _save_checkpoint(path, sweeper, m, n, barrier)
        return
    _save_checkpoint(path, sweeper, m, n, barrier)


def _save_checkpoint(path: str | os.PathLike, sweeper: RowSweeper,
                     m: int, n: int, barrier) -> None:
    state = sweeper.state_dict()
    buffer = io.BytesIO()
    np.savez(buffer, version=CHECKPOINT_VERSION, m=m, n=n, **state)
    if barrier is not None:
        barrier()
    codec.write_artifact(os.fspath(path), buffer.getvalue(),
                         codec.KIND_CHECKPOINT)


def load_checkpoint(path: str | os.PathLike, m: int, n: int) -> dict | None:
    """Load a checkpoint if present and consistent with the comparison.

    Returns ``None`` when no checkpoint exists; raises
    :class:`IntegrityError` when the file is corrupt (bad frame, torn
    npz, missing arrays) and plain :class:`StorageError` when it is
    intact but belongs to a different comparison or format.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        return None
    try:
        payload = codec.read_artifact(path, codec.KIND_CHECKPOINT)
    except FileNotFoundError:
        # Vanished between the existence probe and the read (e.g. a
        # concurrent clear_checkpoint): same as never having existed.
        return None
    try:
        with np.load(io.BytesIO(payload)) as data:
            if int(data["version"]) not in _READABLE_VERSIONS:
                raise StorageError(
                    f"checkpoint {path} has unsupported version "
                    f"{int(data['version'])}")
            if int(data["m"]) != m or int(data["n"]) != n:
                raise StorageError(
                    f"checkpoint {path} belongs to a {int(data['m'])} x "
                    f"{int(data['n'])} comparison, not {m} x {n}")
            state = {key: data[key] for key in _REQUIRED}
            state.update((key, data[key]) for key in _OPTIONAL
                         if key in data.files)
            for key in ("H", "E", "F"):
                if state[key].shape != (n + 1,):
                    raise IntegrityError(
                        f"checkpoint row {key} has shape {state[key].shape}, "
                        f"expected ({n + 1},)",
                        kind=codec.KIND_CHECKPOINT, path=path)
            return state
    except IntegrityError:
        raise
    except StorageError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError) as exc:
        # The frame verified but the npz inside did not decode: damage
        # predating the framed write (or a hand-built artifact).
        raise IntegrityError(
            f"checkpoint payload is not a readable npz: {exc}",
            kind=codec.KIND_CHECKPOINT, path=path) from exc


def checkpoint_row(path: str | os.PathLike, m: int, n: int) -> int | None:
    """Peek at the row a checkpoint would resume from, without arrays.

    Returns ``None`` when no checkpoint exists; raises
    :class:`StorageError` for a checkpoint of a different comparison and
    :class:`IntegrityError` for a corrupt one.  The job service uses this
    to report "resuming from row N" before it re-dispatches a failed
    attempt.
    """
    state = load_checkpoint(path, m, n)
    return None if state is None else int(state["i"])


def quarantine_checkpoint(path: str | os.PathLike) -> str | None:
    """Preserve a corrupt checkpoint for post-mortem and clear the slot."""
    return codec.quarantine_file(path)


def clear_checkpoint(path: str | os.PathLike) -> None:
    """Remove a checkpoint after the stage completes."""
    if os.path.exists(path):
        os.remove(path)
