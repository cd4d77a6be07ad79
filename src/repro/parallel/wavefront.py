"""Process-pool wavefront executor (the paper's external-diagonal schedule).

CUDAlign runs the grid of (band x strip) blocks along *external
diagonals*: every block on diagonal ``d = band + strip`` depends only on
diagonal ``d - 1`` (its top edge through the horizontal bus, its left
edge through the vertical bus), so all of diagonal ``d`` computes
concurrently.  :class:`WavefrontExecutor` reproduces that schedule with
OS processes instead of thread blocks:

* sequence codes and both buses live in named shared memory —
  :mod:`repro.parallel.shm` — so a tile task on the wire is a dozen
  integers plus array *names*, never the arrays;
* each worker owns one duplex pipe; the parent dispatches a diagonal,
  waits for the barrier, harvests the tiles' scalar results (best /
  watch-hit / cells / wall time) and the bus side effects are already
  in place for diagonal ``d + 1``.

Within one diagonal, tiles touch distinct strips and distinct bands, so
the single-buffered buses are race-free by construction; between
diagonals the barrier orders every write before every read.  That is the
whole synchronisation story — no locks, no ring arithmetic.

The same executor doubles as a plain task pool for the
partition-parallel stages (4 and 5), dispatching registered task-body
names from :mod:`repro.parallel.tasks` largest-first so one oversized
partition cannot serialise the tail of the schedule.
"""

from __future__ import annotations

import time
from multiprocessing import connection, get_context

import numpy as np

from repro.constants import NEG_INF, SCORE_DTYPE, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import ConfigError, ReproError
from repro.align.scoring import ScoringScheme
from repro.align.tiled import TileEdges, tile_sweep
from repro.parallel.shm import ArrayRef, SegmentCache, SharedArray
from repro.parallel.tasks import TASK_REGISTRY

# Fork keeps worker start cheap and inherits the imported numpy; fall
# back to the platform default where fork does not exist.
try:
    _CTX = get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platforms
    _CTX = get_context()


def boundary_column(m: int, scheme: ScoringScheme, *, local: bool,
                    start_gap: int = TYPE_MATCH, forced: bool = False
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-0 boundary ``(H, E, X)`` for rows ``1..m``, in closed form.

    Strip-0 tiles need the sweep's own boundary column without running
    the serial row loop.  For local sweeps that is the zero floor.  For
    global sweeps the serial kernel evolves the column as::

        F(i, 0) = max(F(i-1, 0) - G_ext, H(i-1, 0) - G_first)
        H(i, 0) = max(F(i, 0), -inf)        # E(i, 0) is pinned to -inf

    Because ``G_first >= G_ext`` this collapses to the arithmetic ramp
    ``F(1, 0) - (i - 1) * G_ext`` floored at ``-inf - G_first`` (the
    floor binds only when a forced boundary drives F below -inf, where
    re-opening from the clamped H beats extending the sinking run), with
    H the ramp clamped at -inf.

    Three arrays come back because the serial kernel uses *different*
    column-0 values for different roles, and bit-identity requires each:
    ``H`` (clamped) is what the substitution term and best/watch
    tracking see; ``X`` (the unclamped F) seeds the in-row E scan;
    ``E`` is ``X - G_open`` so the tile seed ``max(X, E + G_open)``
    stays exactly ``X`` — the serial seed.
    """
    if local:
        zeros = np.zeros(m, dtype=SCORE_DTYPE)
        return zeros, np.full(m, NEG_INF, dtype=SCORE_DTYPE), zeros
    h_init = int(NEG_INF) if forced else 0
    f_init = 0 if start_gap == TYPE_GAP_S1 else int(NEG_INF)
    f_row1 = max(f_init - scheme.gap_ext, h_init - scheme.gap_first)
    ramp = np.arange(m, dtype=np.int64) * scheme.gap_ext
    left_X = np.maximum(f_row1 - ramp,
                        int(NEG_INF) - scheme.gap_first).astype(SCORE_DTYPE)
    left_H = np.maximum(left_X, NEG_INF)
    left_E = left_X - SCORE_DTYPE(scheme.gap_open)
    return left_H, left_E, left_X


def plan_strip_cols(n: int, workers: int) -> int:
    """Default strip width: enough strips to feed the pool, tiles not
    so narrow that boundary exchange dominates the O(h*w) sweep."""
    target = -(-n // max(2, 2 * workers))  # ceil
    return max(1, min(n, max(32, target)))


def compute_tile(task: dict, arrays: dict) -> dict:
    """Compute one tile against the mapped buses (runs in a worker,
    or inline in the parent when no executor is attached).

    Reads the top edge from the horizontal bus and the left edge from
    the vertical bus (strip 0 carries its boundary column in the task),
    writes the outgoing edges back in place, and returns only scalars.
    """
    r0, r1, c0, c1 = task["r0"], task["r1"], task["c0"], task["c1"]
    s, b = task["s"], task["b"]
    h, w = r1 - r0, c1 - c0
    hbus_H, hbus_E, hbus_F = arrays["hbus_H"], arrays["hbus_E"], arrays["hbus_F"]
    if s == 0:
        left_H, left_E, left_X = task["lH"], task["lE"], task["lX"]
    else:
        left_H = arrays["vbus_H"][b, :h]
        left_E = arrays["vbus_E"][b, :h]
        left_X = None
    edges = TileEdges(top_H=hbus_H[s, :w + 1], top_E=hbus_E[s, :w + 1],
                      top_F=hbus_F[s, :w + 1], left_H=left_H, left_E=left_E,
                      left_X=left_X)
    start = time.perf_counter()
    tile = tile_sweep(arrays["codes0"][r0:r1], arrays["codes1"][c0:c1],
                      task["scheme"], edges, local=task["local"],
                      track_best=task["track_best"],
                      watch_value=task["watch"])
    seconds = time.perf_counter() - start
    hbus_H[s, :w + 1] = tile.bottom_H
    hbus_E[s, :w + 1] = tile.bottom_E
    hbus_F[s, :w + 1] = tile.bottom_F
    arrays["vbus_H"][b, :h] = tile.right_H
    arrays["vbus_E"][b, :h] = tile.right_E
    return {"best": tile.best, "best_pos": tile.best_pos,
            "watch_hit": tile.watch_hit, "cells": tile.cells,
            "seconds": seconds}


def _worker_main(conn) -> None:
    """Worker loop: map segments on demand, answer one request at a time.

    Exits on an explicit ``exit`` message or on pipe EOF — so workers
    orphaned by a SIGKILLed parent drain out instead of lingering.
    """
    cache = SegmentCache()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "exit":
                break
            if kind == "forget":
                cache.forget(msg[1])
                continue
            try:
                if kind == "tile":
                    task = msg[1]
                    arrays = {key: cache.get(ref)
                              for key, ref in task["refs"].items()}
                    reply = ("ok", compute_tile(task, arrays))
                elif kind == "call":
                    _, name, payload, refs = msg
                    arrays = {key: cache.get(ref) for key, ref in refs.items()}
                    reply = ("ok", TASK_REGISTRY[name](payload, arrays))
                else:
                    reply = ("err", "ValueError", f"unknown message {kind!r}")
            except Exception as exc:  # noqa: BLE001 - forwarded to parent
                reply = ("err", type(exc).__name__, str(exc))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        cache.close()
        conn.close()


def _rebuild_error(name: str, message: str) -> Exception:
    """Map a worker-side exception back onto the library hierarchy."""
    import builtins

    import repro.errors as errors_mod

    cls = getattr(errors_mod, name, None) or getattr(builtins, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except TypeError:
            pass
    return ReproError(f"worker {name}: {message}")


class WavefrontExecutor:
    """A pool of sweep workers plus the shared segments they map.

    One executor serves a whole pipeline run: stages 1-3 drive it with
    tile diagonals (:meth:`run_tiles`), stages 4/5 with independent
    partition tasks (:meth:`map_calls`).  All segments handed out via
    :meth:`share`/:meth:`alloc` are tracked and unlinked at
    :meth:`close`, so an early-terminating stage cannot leak memory past
    the run.
    """

    def __init__(self, workers: int = 1, *, metrics=None) -> None:
        if workers < 1:
            raise ConfigError("wavefront executor needs at least one worker")
        self.workers = int(workers)
        self.metrics = metrics
        self._segments: dict[str, SharedArray] = {}
        self._procs = []
        self._conns = []
        for _ in range(self.workers):
            parent_conn, child_conn = _CTX.Pipe(duplex=True)
            proc = _CTX.Process(target=_worker_main, args=(child_conn,),
                                daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self._closed = False

    # ------------------------------------------------------------- memory
    def share(self, source: np.ndarray) -> SharedArray:
        """Copy an array into a tracked shared segment."""
        shared = SharedArray.from_array(np.ascontiguousarray(source))
        self._segments[shared.ref.name] = shared
        return shared

    def alloc(self, shape: tuple[int, ...], dtype) -> SharedArray:
        """Allocate an uninitialised tracked shared segment."""
        shared = SharedArray(shape, dtype)
        self._segments[shared.ref.name] = shared
        return shared

    def release(self, shared_arrays) -> None:
        """Unlink segments and tell every worker to drop its mappings."""
        names = []
        for shared in shared_arrays:
            if self._segments.pop(shared.ref.name, None) is not None:
                names.append(shared.ref.name)
                shared.close()
        if names and not self._closed:
            self._broadcast(("forget", names))

    # ----------------------------------------------------------- dispatch
    def run_tiles(self, tasks: list[dict]) -> list[dict]:
        """Run one diagonal of tiles; returns results in task order."""
        return self._dispatch([("tile", task) for task in tasks])

    def map_calls(self, name: str, payloads: list[dict],
                  refs: dict[str, ArrayRef],
                  sizes: list[int] | None = None) -> list:
        """Fan registered task bodies across the pool, largest first.

        Results come back in *input* order; ``sizes`` only reorders the
        dispatch so the biggest unit starts earliest (SaLoBa's lesson:
        workload balance, not raw worker count, bounds the makespan).
        """
        jobs = [("call", name, payload, refs) for payload in payloads]
        if sizes is not None:
            order = sorted(range(len(jobs)), key=lambda k: -sizes[k])
        else:
            order = list(range(len(jobs)))
        return self._dispatch(jobs, order=order)

    def _dispatch(self, jobs: list[tuple], order: list[int] | None = None):
        if self._closed:
            raise ConfigError("executor is closed")
        if not jobs:
            return []
        pending = list(order) if order is not None else list(range(len(jobs)))
        pending.reverse()  # pop() takes the front of the chosen order
        results: list = [None] * len(jobs)
        idle = list(range(len(self._conns)))
        busy: dict[int, int] = {}  # worker index -> job index
        failure: Exception | None = None
        while pending or busy:
            while pending and idle and failure is None:
                worker = idle.pop()
                job = pending.pop()
                self._conns[worker].send(jobs[job])
                busy[worker] = job
            if failure is not None and not busy:
                break
            ready = connection.wait([self._conns[w] for w in busy])
            for conn in ready:
                worker = self._conns.index(conn)
                job = busy.pop(worker)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    raise ReproError(
                        f"wavefront worker {worker} died mid-task") from None
                idle.append(worker)
                if reply[0] == "ok":
                    results[job] = reply[1]
                elif failure is None:
                    failure = _rebuild_error(reply[1], reply[2])
        if failure is not None:
            raise failure
        return results

    # ------------------------------------------------------------ teardown
    def _broadcast(self, msg: tuple) -> None:
        for conn in self._conns:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                pass

    def close(self) -> None:
        if self._closed:
            return
        self._broadcast(("exit",))
        self._closed = True
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1)
        for shared in list(self._segments.values()):
            shared.close()
        self._segments.clear()

    def __enter__(self) -> "WavefrontExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass
