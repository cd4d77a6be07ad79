"""Serial E scan against the doubling and block scans, and the scalar
zero floor against the zero row — the table behind the constants that
choose ``rowscan``'s in-row gap scan.

For each 1-D row width and each ``(K, w)`` lane block shape Stage 4
sweeps (``LANE_SHAPES``) it times
:func:`repro.align.rowscan._gap_scan` over one random local row
(``X >= 0``, ``G_ext = 1``), every variant forced by patching the
module's constants by name:

* ``serial`` — ``np.maximum.accumulate``, what a row below the block
  scan's cell floor takes when it cannot double;
* ``+bound`` — the serial scan plus the ``max(X)`` that local rows above
  ``_SCAN_MIN_WIDTH`` pay on every path (a tracking sweep reuses it as
  the row maximum instead of ``H.max()``);
* ``k=1..`` — the bounded doubling scan forced to ``k`` steps, bound
  included;
* ``b=1..4`` — the two-round block scan with ``2**b``-column blocks,
  what global rows, seeded tiles and long-reach local rows take once
  they hold ``_BLOCK_MIN_CELLS`` cells;
* ``max(X,0)`` / ``max(X,zero)`` — the local zero floor against the
  scalar ``0`` and against an all-zero array of the row's shape.

``*`` marks what ``rowscan``'s rule picks: every ``k`` up to the step
cap (one step per ``_SCAN_MIN_WIDTH`` columns plus one, at most
``_SCAN_MAX_STEPS``), and for an unbounded row ``serial`` below the cell
floor or ``b=_BLOCK_STEPS`` at or above it.  A marked ``k`` should beat
``+bound``, a marked ``b`` should beat ``serial`` and an unmarked one
should not, and ``max(X,zero)`` — the floor ``row_step`` runs — should
beat ``max(X,0)``.  Times are medians over ``--repeats`` rounds, in
microseconds per call.

Usage::

    PYTHONPATH=src python benchmarks/bench_gap_scan.py
    PYTHONPATH=src python benchmarks/bench_gap_scan.py --widths 2048 23968
"""

from __future__ import annotations

import argparse
import statistics
import sys
import timeit
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.align import rowscan
from repro.constants import SCORE_DTYPE

DEFAULT_WIDTHS = (1024, 1536, 2048, 2560, 3072, 4096, 6144, 8192, 12288,
                  16384, 20480, 24576)
#: Lane blocks (K lanes x widest lane + 1) of the shapes Stage 4 sweeps.
LANE_SHAPES = ((16, 2000), (32, 1000), (32, 2500), (128, 200))
BLOCK_STEPS = (1, 2, 3, 4)
_NUMBER = 50  # calls per timed sample
#: Every scan off: no doubling, no block scan, bound computed at any width.
_SERIAL = {"_SCAN_MIN_WIDTH": 1, "_SCAN_MAX_STEPS": -1,
           "_BLOCK_MIN_CELLS": sys.maxsize}


def measure(shape: tuple[int, ...], max_steps: int, repeats: int) -> dict:
    """Median microseconds per call on one row or lane block of ``shape``.

    Every variant runs once per round, ``repeats`` rounds, so host drift
    spreads over all of them alike.
    """
    rng = np.random.default_rng(list(shape))
    base = rng.integers(0, 1 << 20, shape).astype(SCORE_DTYPE)
    X = np.empty_like(base)
    T = np.empty_like(X)
    E = np.empty_like(X)
    zero = np.zeros_like(X)
    width = shape[-1]
    ramp = np.arange(width, dtype=SCORE_DTYPE)
    gext = SCORE_DTYPE(1)
    # name -> (constants, bounded, max(X)); max(X) = 2**(k-1) makes the
    # bound need exactly k steps.
    variants = {"serial": (_SERIAL, False, 29), "+bound": (_SERIAL, True, 29)}
    for k in range(1, max_steps + 1):
        variants[f"k={k}"] = ({**_SERIAL, "_SCAN_MAX_STEPS": max_steps},
                              True, 2 ** (k - 1))
    for s in BLOCK_STEPS:
        variants[f"b={s}"] = ({**_SERIAL, "_BLOCK_MIN_CELLS": 0,
                               "_BLOCK_STEPS": s}, False, 29)
    floors = {"max(X,0)": 0, "max(X,zero)": zero}
    samples: dict = {name: [] for name in [*variants, *floors]}
    saved = {name: getattr(rowscan, name)
             for name in [*_SERIAL, "_BLOCK_STEPS"]}
    try:
        for _ in range(repeats):
            for name, (constants, bounded, peak) in variants.items():
                for constant, value in constants.items():
                    setattr(rowscan, constant, value)
                np.remainder(base, peak + 1, out=X)
                X.reshape(-1)[X.size // 2] = peak

                def scan():
                    rowscan._gap_scan(X, T, E, ramp, gext, bounded)
                scan()
                samples[name].append(timeit.timeit(scan, number=_NUMBER))
            for name, operand in floors.items():
                def floor():
                    np.maximum(X, operand, out=X)
                floor()
                samples[name].append(timeit.timeit(floor, number=_NUMBER))
    finally:
        for constant, value in saved.items():
            setattr(rowscan, constant, value)
    row = {name: statistics.median(runs) / _NUMBER * 1e6
           for name, runs in samples.items()}
    row["shape"] = shape
    return row


def step_cap(width: int) -> int:
    """Most steps ``rowscan`` lets a ``width``-column row take (-1: none)."""
    if width < rowscan._SCAN_MIN_WIDTH:
        return -1
    return min(rowscan._SCAN_MAX_STEPS, width // rowscan._SCAN_MIN_WIDTH + 1)


def picks(shape: tuple[int, ...]) -> set[str]:
    """The columns ``rowscan``'s rule would take for this shape."""
    width, cells = shape[-1], int(np.prod(shape))
    chosen = {f"k={k}" for k in range(1, step_cap(width) + 1)}
    chosen.add("serial" if cells < rowscan._BLOCK_MIN_CELLS
               else f"b={rowscan._BLOCK_STEPS}")
    chosen.add("max(X,zero)")
    return chosen


def render(rows: list[dict], max_steps: int) -> str:
    names = ["serial", "+bound", *(f"k={k}" for k in range(1, max_steps + 1)),
             *(f"b={s}" for s in BLOCK_STEPS), "max(X,0)", "max(X,zero)"]
    head = ["row", *names]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]
    for row in rows:
        chosen = picks(row["shape"])
        cells = [" x ".join(f"{d:,}" for d in row["shape"])]
        cells += [f"{row[name]:.1f}" + ("*" if name in chosen else "")
                  for name in names]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--widths", nargs="+", type=int,
                        default=list(DEFAULT_WIDTHS))
    parser.add_argument("--max-steps", type=int, default=14)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    shapes = [(w,) for w in args.widths] + list(LANE_SHAPES)
    rows = [measure(shape, args.max_steps, args.repeats) for shape in shapes]
    print(render(rows, args.max_steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
