"""The tile grid's contract is bit-identity, not approximation.

:func:`repro.align.tiled.tile_sweep` is the parallel decomposition under
the GPU block schedule (``gpusim.blocksim``), the multi-GPU split
(``gpusim.multigpu``) and the Z-align cluster: the matrix cut into
(band x strip) tiles that exchange only their edges.  Every test here
runs a local sweep as such a grid and compares it with the monolithic
serial kernel on the same inputs, asserting *exact* equality of every
value the grid exchanges or reports — each band's bottom row (H/E/F, the
horizontal bus), the last strip's right edge (H/E, the final-column
taps) and the best score.  Geometries are adversarial on purpose:
one-column strips, strips wider than the matrix, and widths that divide
neither dimension.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import NEG_INF, SCORE_DTYPE
from repro.align.rowscan import RowSweeper
from repro.align.tiled import TileEdges, tile_sweep

from tests.conftest import SCHEMES, make_pair

#: Device count of the ``None`` geometry's strip plan.
DEVICES = 4

#: (strip_cols, band_rows) — adversarial tile geometries: single-column
#: strips, a strip wider than the whole matrix, a width that does not
#: divide n, and ``None`` for the plan the grid's callers make for
#: themselves (``multi_gpu_sweep_score``, Z-align): ``n // devices``
#: columns per strip, the remainder a narrow last strip.
GEOMETRIES = [(1, 7), (500, 1), (13, 50), (None, 32)]


def _grid_sweep(s0, s1, scheme, strip_cols, band_rows):
    """A local sweep as a band-by-band grid of :func:`tile_sweep` calls.

    Returns ``(buses, right_H, right_E, best)``: each band's bottom row
    (H, E, F) keyed by its last matrix row, the last strip's right edge
    over rows 1..m, and the best cell score.
    """
    m, n = len(s0), len(s1)
    strip_cols = strip_cols or max(1, n // DEVICES)
    H = np.zeros(n + 1, dtype=SCORE_DTYPE)
    E = np.full(n + 1, NEG_INF, dtype=SCORE_DTYPE)
    F = np.full(n + 1, NEG_INF, dtype=SCORE_DTYPE)
    buses, right_H, right_E, best = {}, [], [], 0
    for r0 in range(0, m, band_rows):
        r1 = min(m, r0 + band_rows)
        left_H = np.zeros(r1 - r0, dtype=SCORE_DTYPE)
        left_E = np.full(r1 - r0, NEG_INF, dtype=SCORE_DTYPE)
        bus = (np.empty_like(H), np.empty_like(E), np.empty_like(F))
        for c0 in range(0, n, strip_cols):
            c1 = min(n, c0 + strip_cols)
            tile = tile_sweep(
                s0.codes[r0:r1], s1.codes[c0:c1], scheme,
                TileEdges(top_H=H[c0:c1 + 1], top_E=E[c0:c1 + 1],
                          top_F=F[c0:c1 + 1], left_H=left_H, left_E=left_E),
                local=True, track_best=True)
            # Column c0 is the shared corner: past the first strip it
            # belongs to the left neighbour's segment.
            lo = 0 if c0 == 0 else 1
            for row, edge in zip(bus, (tile.bottom_H, tile.bottom_E,
                                       tile.bottom_F)):
                row[c0 + lo:c1 + 1] = edge[lo:]
            left_H, left_E = tile.right_H, tile.right_E
            best = max(best, tile.best)
        right_H.append(left_H)
        right_E.append(left_E)
        H, E, F = buses[r1] = bus
    return buses, np.concatenate(right_H), np.concatenate(right_E), best


def _assert_grid_identical(s0, s1, scheme, geometry):
    buses, right_H, right_E, best = _grid_sweep(s0, s1, scheme, *geometry)
    serial = RowSweeper(s0.codes, s1.codes, scheme, local=True,
                        track_best=True, tap_columns=np.array([len(s1)]))
    for row, (H, E, F) in buses.items():
        serial.advance(row - serial.i)
        np.testing.assert_array_equal(serial.H, H)
        np.testing.assert_array_equal(serial.E, E)
        np.testing.assert_array_equal(serial.F, F)
    assert serial.done
    np.testing.assert_array_equal(serial.tap_H[1:, 0], right_H)
    np.testing.assert_array_equal(serial.tap_E[1:, 0], right_E)
    assert serial.best == best


class TestTileGridEquivalence:
    """The tile grid vs the serial kernel, edge for edge."""

    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=["strip1", "strip>n", "ragged", "auto"])
    @pytest.mark.parametrize("local", [True], ids=["local"])
    def test_bit_identity(self, rng, local, geometry):
        # Local only: every caller of the grid runs a Stage-1 sweep.
        s0, s1 = make_pair(rng, 90, 77)
        scheme = SCHEMES[len(str(geometry)) % len(SCHEMES)]
        _assert_grid_identical(s0, s1, scheme, geometry)

    @pytest.mark.parametrize("scheme", SCHEMES,
                             ids=["paper", "affine", "flat-gap", "zero-mm"])
    def test_every_scheme(self, rng, scheme):
        s0, s1 = make_pair(rng, 64, 51)
        _assert_grid_identical(s0, s1, scheme, (9, 5))

