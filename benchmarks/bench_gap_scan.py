"""Serial E scan against k doubling steps — the table behind the two
constants that choose ``rowscan``'s in-row gap scan.

For each row width it times :func:`repro.align.rowscan._gap_scan` three
ways over one random local row (``X >= 0``, ``G_ext = 1``):

* ``serial`` — ``np.maximum.accumulate``, the path every global or
  narrow row takes;
* ``+bound`` — the serial scan plus the ``max(X)`` that rows above
  ``_SCAN_MIN_WIDTH`` pay on either path (a tracking sweep reuses it as
  the row maximum instead of ``H.max()``);
* ``k=1..`` — the doubling scan forced to ``k`` steps, bound included.

A row above the width floor should take ``k`` steps only where ``k``
beats ``+bound``; ``rowscan``'s rule (one step per ``_SCAN_MIN_WIDTH``
columns plus one, at most ``_SCAN_MAX_STEPS``) is marked with ``*``.
Times are medians over ``--repeats`` rounds, in microseconds per scan.

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

DEFAULT_WIDTHS = (1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384,
                  24576)
_NUMBER = 50  # scans per timed sample


def measure(width: int, max_steps: int, repeats: int) -> dict:
    """Median microseconds per scan of one ``width``-column row.

    Every variant runs once per round, ``repeats`` rounds, so host drift
    spreads over all of them alike.
    """
    rng = np.random.default_rng(width)
    base = rng.integers(0, 1 << 20, width).astype(SCORE_DTYPE)
    X = np.empty_like(base)
    T = np.empty_like(X)
    E = np.empty_like(X)
    ramp = np.arange(width, dtype=SCORE_DTYPE)
    gext = SCORE_DTYPE(1)
    # name -> (max steps, bounded, max(X)), with the width floor at 1 so
    # every width computes the bound; max(X) = 2**(k-1) makes the bound
    # need exactly k steps.
    variants = {"serial": (-1, False, 29), "+bound": (-1, True, 29)}
    for k in range(1, max_steps + 1):
        variants[k] = (max_steps, True, 2 ** (k - 1))
    samples: dict = {name: [] for name in variants}
    saved = rowscan._SCAN_MIN_WIDTH, rowscan._SCAN_MAX_STEPS
    try:
        for _ in range(repeats):
            for name, (cap, bounded, peak) in variants.items():
                rowscan._SCAN_MIN_WIDTH, rowscan._SCAN_MAX_STEPS = 1, cap
                np.remainder(base, peak + 1, out=X)
                X[width // 2] = peak

                def scan():
                    rowscan._gap_scan(X, T, E, ramp, gext, bounded)
                scan()
                samples[name].append(timeit.timeit(scan, number=_NUMBER))
    finally:
        rowscan._SCAN_MIN_WIDTH, rowscan._SCAN_MAX_STEPS = saved
    row = {name: statistics.median(runs) / _NUMBER * 1e6
           for name, runs in samples.items()}
    row["width"] = width
    return row


def step_cap(width: int) -> int:
    """Most steps ``rowscan`` lets a ``width``-column row take (-1: none)."""
    if width < rowscan._SCAN_MIN_WIDTH:
        return -1
    return min(rowscan._SCAN_MAX_STEPS, width // rowscan._SCAN_MIN_WIDTH + 1)


def render(rows: list[dict], max_steps: int) -> str:
    steps = range(1, max_steps + 1)
    head = ["width", "serial", "+bound", *(f"k={k}" for k in steps)]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]
    for row in rows:
        cap = step_cap(row["width"])
        cells = [f"{row['width']:,}", f"{row['serial']:.1f}",
                 f"{row['+bound']:.1f}"]
        cells += [f"{row[k]:.1f}" + ("*" if k <= cap else "") for k in steps]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--widths", nargs="+", type=int,
                        default=list(DEFAULT_WIDTHS))
    parser.add_argument("--max-steps", type=int, default=14)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    rows = [measure(w, args.max_steps, args.repeats) for w in args.widths]
    print(render(rows, args.max_steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
