"""Special line store, flush-interval law, binary alignment codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import SPECIAL_CELL_BYTES, TYPE_GAP_S0, TYPE_GAP_S1
from repro.errors import StorageError
from repro.align.alignment import Alignment
from repro.storage import (
    BinaryAlignment,
    SavedLine,
    SpecialLineStore,
    flush_interval_blocks,
    special_row_positions,
)
from repro.storage.sra import check_log


def line(pos=8, size=10, axis="row", lo=0):
    h = np.arange(size, dtype=np.int32)
    return SavedLine(axis=axis, position=pos, lo=lo, H=h, G=h * 2)


class TestFlushIntervalLaw:
    def test_paper_formula(self):
        # interval >= ceil(8mn / (alpha*T*|SRA|)); block_rows = alpha*T.
        m, n, block_rows = 4096, 4096, 256
        sra = 2 * SPECIAL_CELL_BYTES * (n + 1)  # room for two rows
        interval = flush_interval_blocks(m, n, block_rows, sra)
        import math
        assert interval == max(1, math.ceil(8 * m * n / (block_rows * sra)))

    def test_zero_capacity_disables_flush(self):
        assert flush_interval_blocks(100, 100, 10, 0) == 0
        assert special_row_positions(100, 100, 10, 0) == []

    def test_capacity_below_one_row_disables(self):
        n = 100
        assert flush_interval_blocks(100, n, 10, SPECIAL_CELL_BYTES * n - 1) == 0

    def test_positions_are_block_multiples(self):
        rows = special_row_positions(1000, 100, 32, 10**9)
        assert rows and all(r % 32 == 0 for r in rows)
        assert rows == sorted(set(rows))

    def test_positions_respect_budget(self):
        n = 127
        row_bytes = SPECIAL_CELL_BYTES * (n + 1)
        rows = special_row_positions(10_000, n, 8, 3 * row_bytes)
        assert len(rows) <= 3

    def test_invalid_args(self):
        with pytest.raises(StorageError):
            flush_interval_blocks(0, 10, 5, 100)


class TestSpecialLineStore:
    def test_save_load_memory(self):
        store = SpecialLineStore(10**6)
        store.save("s1", line(pos=8))
        loaded = store.load("s1", 8)
        np.testing.assert_array_equal(loaded.H, np.arange(10))
        assert loaded.value_at(3) == (3, 6)

    def test_save_load_disk_round_trip(self, tmp_path):
        store = SpecialLineStore(10**6, directory=tmp_path / "sra")
        saved = line(pos=16, size=33)
        store.save("rows", saved)
        loaded = store.load("rows", 16)
        np.testing.assert_array_equal(loaded.H, saved.H)
        np.testing.assert_array_equal(loaded.G, saved.G)
        assert loaded.axis == "row" and loaded.lo == 0

    def test_budget_enforced(self):
        store = SpecialLineStore(line().nbytes)
        store.save("a", line(pos=1))
        with pytest.raises(StorageError, match="budget exceeded"):
            store.save("a", line(pos=2))

    def test_release_frees_budget(self, tmp_path):
        store = SpecialLineStore(line().nbytes, directory=tmp_path)
        store.save("a", line(pos=1))
        freed = store.release("a")
        assert freed == line().nbytes
        assert store.bytes_used == 0
        # The namespace's log goes with it: no file is left behind.
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        store.save("a", line(pos=2))  # fits again
        # lifetime traffic keeps counting
        assert store.bytes_written == 2 * line().nbytes

    def test_disk_store_keeps_one_log_per_namespace(self, tmp_path):
        store = SpecialLineStore(10**6, directory=tmp_path / "sca")
        for p in (8, 16):
            store.save("stage2/band0", line(pos=p, axis="col", lo=4))
        store.save("stage2/band1", line(pos=8, axis="col"))
        assert sorted(p.name for p in (tmp_path / "sca").iterdir()) == [
            "stage2_band0.lines", "stage2_band1.lines"]
        loaded = store.load("stage2/band0", 16)
        assert (loaded.axis, loaded.position, loaded.lo) == ("col", 16, 4)
        np.testing.assert_array_equal(loaded.G, line().G)

    def test_fresh_store_starts_its_logs_afresh(self, tmp_path):
        """A store not recovering never appends to a dead run's log."""
        SpecialLineStore(10**6, directory=tmp_path).save("a", line(pos=1))
        store = SpecialLineStore(10**6, directory=tmp_path)
        store.save("a", line(pos=2))
        again = SpecialLineStore(10**6, directory=tmp_path, recover=True)
        assert again.positions("a") == [2]

    @pytest.mark.parametrize("target", ["magic", "length", "payload",
                                        "last byte"])
    def test_one_flipped_bit_costs_one_line(self, tmp_path, target):
        """Damage to one record, even to its length field, never hides the
        records after it; recovery excises it once and for all."""
        store = SpecialLineStore(10**6, directory=tmp_path)
        for p in (8, 16, 24):
            store.save("rows", line(pos=p))
        log = tmp_path / "rows.lines"
        data = bytearray(log.read_bytes())
        record = len(data) // 3
        at = {"magic": 0, "length": record + 8, "payload": 2 * record - 20,
              "last byte": len(data) - 1}[target]
        data[at] ^= 0x10
        log.write_bytes(bytes(data))
        assert len(check_log(log)) == 1
        first = SpecialLineStore(10**6, directory=tmp_path, recover=True)
        assert (first.recovered_lines, first.corrupt_lines) == (2, 1)
        again = SpecialLineStore(10**6, directory=tmp_path, recover=True)
        assert (again.recovered_lines, again.corrupt_lines) == (2, 0)
        assert check_log(log) == []
        for p in again.positions("rows"):
            np.testing.assert_array_equal(again.load("rows", p).H, line().H)

    def test_duplicate_rejected(self):
        store = SpecialLineStore(10**6)
        store.save("a", line(pos=1))
        with pytest.raises(StorageError, match="already saved"):
            store.save("a", line(pos=1))

    def test_missing_line(self):
        with pytest.raises(StorageError, match="no special line"):
            SpecialLineStore(10).load("a", 1)

    def test_positions_sorted_per_namespace(self):
        store = SpecialLineStore(10**6)
        for p in (32, 8, 16):
            store.save("a", line(pos=p))
        store.save("b", line(pos=4))
        assert store.positions("a") == [8, 16, 32]
        assert store.positions("b") == [4]

    def test_value_at_out_of_range(self):
        with pytest.raises(StorageError):
            line(lo=5).value_at(3)

    def test_invalid_axis(self):
        with pytest.raises(StorageError):
            SavedLine(axis="diag", position=0, lo=0,
                      H=np.zeros(2, np.int32), G=np.zeros(2, np.int32))


class TestBinaryAlignment:
    def make(self, ops, i0=3, j0=5, score=42):
        a = Alignment(i0, j0, np.asarray(ops, np.uint8))
        return a, BinaryAlignment.from_alignment(a, score)

    def test_round_trip_encode_decode(self):
        _, ba = self.make([0, 1, 1, 0, 2, 0])
        again = BinaryAlignment.decode(ba.encode())
        assert again == ba

    def test_reconstruct_exact_path(self):
        a, ba = self.make([0, 0, 1, 1, 0, 2, 2, 0, 0])
        rebuilt = ba.reconstruct()
        assert rebuilt.start == a.start and rebuilt.end == a.end
        np.testing.assert_array_equal(rebuilt.ops, a.ops)

    def test_reconstruct_pure_diagonal(self):
        a, ba = self.make([0, 0, 0, 0])
        np.testing.assert_array_equal(ba.reconstruct().ops, a.ops)

    def test_reconstruct_empty(self):
        a, ba = self.make([])
        assert len(ba.reconstruct()) == 0

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.integers(0, 2), max_size=80),
           i0=st.integers(0, 50), j0=st.integers(0, 50))
    def test_property_round_trip(self, ops, i0, j0):
        a = Alignment(i0, j0, np.asarray(ops, np.uint8))
        ba = BinaryAlignment.from_alignment(a, 7)
        rebuilt = BinaryAlignment.decode(ba.encode()).reconstruct()
        np.testing.assert_array_equal(rebuilt.ops, a.ops)
        assert rebuilt.start == a.start

    def test_compactness_vs_text(self):
        # Mostly-diagonal alignments compress massively (the paper: 279x).
        ops = [0] * 10_000 + [1, 1] + [0] * 10_000
        a, ba = self.make(ops)
        assert ba.nbytes < len(ops) / 100

    def test_decode_rejects_garbage(self):
        with pytest.raises(StorageError):
            BinaryAlignment.decode(b"nope")
        with pytest.raises(StorageError, match="bad magic"):
            BinaryAlignment.decode(b"XXXX" + bytes(60))

    def test_decode_rejects_truncation(self):
        _, ba = self.make([0, 1, 0])
        blob = ba.encode()
        with pytest.raises(StorageError, match="expected"):
            BinaryAlignment.decode(blob[:-1])

    def test_reconstruct_rejects_inconsistent_gaps(self):
        from repro.align.alignment import GapRun
        bad = BinaryAlignment(0, 0, 5, 5, 0,
                              (GapRun(3, 1, 2, TYPE_GAP_S0),), ())
        with pytest.raises(StorageError, match="unreachable"):
            bad.reconstruct()
