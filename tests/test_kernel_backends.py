"""Sweep conformance: every sweep path, bit for bit.

Every O(mn) sweep runs the one Gotoh row body
(:func:`repro.align.rowscan.row_step`), reached two ways: the serial
:class:`RowSweeper` (the ``rowscan`` reference) and the fused lane axis
(``lanes``: a K=1 adapter over :func:`repro.align.batched.sweep_lanes`).
The lane path must be an *exact* drop-in for the reference — identical
H/E/F rows, best cell, watch hit, saved rows, taps, cell counts and
checkpoints — so this suite runs both through the same assertion
(:func:`tests.conftest.assert_sweeps_identical`) on inputs chosen to
break lookalikes: N-heavy sequences through the substitution LUT, the
``gap_first == gap_ext`` scan boundary, one-row and one-column matrices,
every forced/start-gap regime, windowed ``advance`` cuts, and
cross-path checkpoint resume.  It also pins the removal of the
``kernel``, ``executor`` and ``workers`` knobs, and the bench ledger's
refusal to report names the script cannot back.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.constants import TYPE_GAP_S0, TYPE_GAP_S1, TYPE_MATCH
from repro.errors import ConfigError
from repro.align import RowSweeper
from repro.align.batched import sweep_lanes
from repro.align.myers_miller import MMConfig
from repro.align.scoring import PAPER_SCHEME
from repro.core import small_config
from repro.service import JobSpec, load_specs
from repro.sequences.sequence import N_CODE, Sequence

from tests.conftest import SCHEMES, assert_sweeps_identical, make_pair

from benchmarks.bench_backends import KERNELS, build_ledger, validate_ledger

REGIMES = [
    ("local", dict(local=True, start_gap=TYPE_MATCH, forced=False)),
    ("global", dict(local=False, start_gap=TYPE_MATCH, forced=False)),
    ("gap-s0", dict(local=False, start_gap=TYPE_GAP_S0, forced=False)),
    ("gap-s1", dict(local=False, start_gap=TYPE_GAP_S1, forced=False)),
    ("forced-s0", dict(local=False, start_gap=TYPE_GAP_S0, forced=True)),
    ("forced-s1", dict(local=False, start_gap=TYPE_GAP_S1, forced=True)),
]


class _LaneSweeper(RowSweeper):
    """One K=1 lane through the fused batch path, so the lane axis is
    held to every regime the serial kernel accepts."""

    def _advance(self, nrows: int) -> int:
        sweep_lanes([self], nrows)
        return nrows


SWEEPERS = {"rowscan": RowSweeper, "lanes": _LaneSweeper}
NON_REFERENCE = ["lanes"]
#: Knobs the pipeline and the job spec no longer take.
RETIRED_KNOBS = [("kernel", "diagonal"), ("executor", "wavefront"),
                 ("workers", 2)]


def _make(name, s0, s1, scheme, **kw):
    return SWEEPERS[name](s0.codes, s1.codes, scheme, **kw)


def _n_heavy_pair(rng, m, n, frac=0.3):
    """Sequences where ~frac of the bases are N — the LUT row that a
    match/mismatch branch (instead of a table gather) would get wrong."""
    c0 = rng.integers(0, 4, size=m).astype(np.uint8)
    c1 = rng.integers(0, 4, size=n).astype(np.uint8)
    c0[rng.random(m) < frac] = N_CODE
    c1[rng.random(n) < frac] = N_CODE
    return Sequence(c0, name="n0"), Sequence(c1, name="n1")


class TestConformance:
    """Every backend vs the rowscan reference, adversarial inputs."""

    @pytest.mark.parametrize("regime", [r[1] for r in REGIMES],
                             ids=[r[0] for r in REGIMES])
    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_every_regime(self, rng, name, regime):
        s0, s1 = make_pair(rng, 73, 61)
        scheme = SCHEMES[(len(name) + len(str(regime))) % len(SCHEMES)]
        kw = dict(track_best=True, save_rows=np.array([10, 32, 61]),
                  tap_columns=np.array([len(s1)]))
        ref = _make("rowscan", s0, s1, scheme, **regime, **kw).run()
        watch = ref.best if regime["local"] else None
        ref = _make("rowscan", s0, s1, scheme, watch_value=watch,
                    **regime, **kw).run()
        other = _make(name, s0, s1, scheme, watch_value=watch,
                      **regime, **kw).run()
        assert_sweeps_identical(ref, other)

    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_n_heavy_sequences(self, rng, name):
        # The substitution LUT has a dedicated N row; any backend that
        # shortcuts scoring to "match or mismatch" diverges here.
        s0, s1 = _n_heavy_pair(rng, 80, 66)
        for _, regime in (REGIMES[0], REGIMES[4]):
            ref = _make("rowscan", s0, s1, PAPER_SCHEME, track_best=True,
                        **regime).run()
            other = _make(name, s0, s1, PAPER_SCHEME, track_best=True,
                          **regime).run()
            assert_sweeps_identical(ref, other)

    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_flat_gap_scheme(self, rng, name):
        # gap_first == gap_ext collapses the open/extend distinction —
        # the boundary case of the prefix-max E scan's algebra.
        scheme = SCHEMES[2]
        assert scheme.gap_first == scheme.gap_ext
        s0, s1 = make_pair(rng, 57, 64)
        for _, regime in REGIMES:
            ref = _make("rowscan", s0, s1, scheme, **regime).run()
            other = _make(name, s0, s1, scheme, **regime).run()
            assert_sweeps_identical(ref, other)

    @pytest.mark.parametrize("m,n", [(1, 40), (37, 1), (1, 1), (2, 2)])
    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_degenerate_shapes(self, rng, name, m, n):
        s0, s1 = make_pair(rng, m, n, related=False)
        for _, regime in REGIMES:
            ref = _make("rowscan", s0, s1, PAPER_SCHEME, track_best=True,
                        **regime).run()
            other = _make(name, s0, s1, PAPER_SCHEME, track_best=True,
                          **regime).run()
            assert_sweeps_identical(ref, other)

    @pytest.mark.parametrize("name", NON_REFERENCE)
    def test_windowed_advance(self, rng, name):
        # Stage 1 drives sweeps in block windows; backends must agree at
        # every cut, not just at the end (window size 17 never divides
        # the row count evenly).
        s0, s1 = make_pair(rng, 96, 80)
        ref = _make("rowscan", s0, s1, PAPER_SCHEME, local=True,
                    track_best=True)
        other = _make(name, s0, s1, PAPER_SCHEME, local=True,
                      track_best=True)
        while not ref.done:
            assert ref.advance(17) == other.advance(17)
            np.testing.assert_array_equal(ref.H, other.H)
            np.testing.assert_array_equal(ref.E, other.E)
            np.testing.assert_array_equal(ref.F, other.F)
            assert ref.best == other.best
        assert other.done

    def test_interior_taps(self, rng):
        # Interior tap columns are a capability, not part of the base
        # contract: conformance applies to every backend that claims it.
        s0, s1 = make_pair(rng, 50, 44)
        capable = ["lanes"]
        taps = np.array([1, 17, len(s1)])
        for name in capable:
            for _, regime in REGIMES:
                ref = _make("rowscan", s0, s1, PAPER_SCHEME,
                            tap_columns=taps, **regime).run()
                other = _make(name, s0, s1, PAPER_SCHEME,
                              tap_columns=taps, **regime).run()
                assert_sweeps_identical(ref, other)

    def test_checkpoint_resumes_across_backends(self, rng):
        # A state_dict written by one sweep path mid-sweep resumes the
        # rowscan kernel (and vice versa) to the same final state — the
        # property that makes Stage-1 checkpoints path-agnostic.
        s0, s1 = make_pair(rng, 90, 70)
        kw = dict(local=True, track_best=True)
        reference = _make("rowscan", s0, s1, PAPER_SCHEME, **kw).run()

        for name in NON_REFERENCE:
            other = _make(name, s0, s1, PAPER_SCHEME, **kw)
            other.advance(41)
            resumed = _make("rowscan", s0, s1, PAPER_SCHEME, **kw)
            resumed.load_state(other.state_dict())
            assert_sweeps_identical(reference, resumed.run())
            assert_sweeps_identical(reference, other.run())

            row = _make("rowscan", s0, s1, PAPER_SCHEME, **kw)
            row.advance(41)
            resumed = _make(name, s0, s1, PAPER_SCHEME, **kw)
            resumed.load_state(row.state_dict())
            assert_sweeps_identical(reference, resumed.run())


class TestPipelineParity:
    def test_config_rejects_bad_kernel(self):
        # One in-process kernel and one execution model are left, so the
        # kernel, executor and workers knobs are gone everywhere: config
        # objects refuse them and the job-spec wire format treats each
        # as an unknown field.
        for field, value in RETIRED_KNOBS:
            with pytest.raises(TypeError):
                small_config(block_rows=32, n=256, **{field: value})
            spec = JobSpec(seq0="a.fa", seq1="b.fa").to_json()
            spec[field] = value
            with pytest.raises(ConfigError, match="unknown job spec fields"):
                JobSpec.from_json(spec)
        with pytest.raises(TypeError):
            MMConfig(kernel="rowscan")

    def test_job_spec_round_trips_kernel(self, tmp_path):
        # The wire format carries no kernel, executor or workers: a spec
        # round-trips without them, the pipeline config it builds has
        # none, and a spec file that names one is refused rather than
        # silently dropped.
        spec = JobSpec(seq0="a.fa", seq1="b.fa")
        wire = spec.to_json()
        assert JobSpec.from_json(wire) == spec
        for field, value in RETIRED_KNOBS:
            assert field not in wire
            assert not hasattr(spec.pipeline_config(n=4096), field)
            spec_file = tmp_path / f"{field}.json"
            spec_file.write_text(json.dumps([{**wire, field: value}]))
            with pytest.raises(ConfigError, match="unknown job spec fields"):
                load_specs(spec_file)


class TestBenchLedger:
    """The MCUPS ledger cannot report a kernel the script cannot back."""

    TRAJECTORY = (Path(__file__).resolve().parent.parent
                  / "benchmarks" / "trajectory" / "BENCH_backends.json")

    def test_committed_trajectory_is_valid(self):
        ledger = json.loads(self.TRAJECTORY.read_text())
        validate_ledger(ledger)
        assert set(ledger["kernels"]) == set(KERNELS)

    def test_unknown_backend_name_rejected(self):
        ledger = json.loads(self.TRAJECTORY.read_text())
        spec = next(iter(ledger["workloads"]))
        entry = ledger["workloads"][spec]["backends"]
        entry["cuda"] = next(iter(entry.values()))
        with pytest.raises(ValueError, match="unknown kernel 'cuda'"):
            validate_ledger(ledger)

    def test_registry_drift_rejected(self):
        ledger = json.loads(self.TRAJECTORY.read_text())
        ledger["kernels"].append("diagonal")
        with pytest.raises(ValueError, match="kernels"):
            validate_ledger(ledger)

    def test_schema_drift_rejected(self):
        ledger = json.loads(self.TRAJECTORY.read_text())
        ledger["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            validate_ledger(ledger)

    def test_build_refuses_unknown_backends(self):
        with pytest.raises(ConfigError, match="refuses to report"):
            build_ledger(["8x8"], ["rowscan", "cuda"], repeats=1)

    def test_measured_entry_validates(self):
        ledger = build_ledger(["48x40", "3x8x8"], ["rowscan", "batched"],
                              repeats=1)
        validate_ledger(ledger)
        entry = ledger["workloads"]["48x40"]
        assert entry["cells"] == 48 * 40
        assert entry["backends"]["rowscan"]["speedup_vs_rowscan"] == 1.0
