"""CLI end-to-end tests (the `cudalign` entry point)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.sequences import homologous_pair, write_fasta
from repro.storage import read_binary_alignment


@pytest.fixture
def fasta_pair(tmp_path):
    rng = np.random.default_rng(11)
    s0, s1 = homologous_pair(700, rng, names=("chrA", "chrB"))
    p0 = tmp_path / "a.fasta"
    p1 = tmp_path / "b.fasta"
    write_fasta(p0, s0)
    write_fasta(p1, s1)
    return str(p0), str(p1), s0, s1


class TestAlign:
    def test_align_reports_score(self, fasta_pair, capsys):
        p0, p1, _, _ = fasta_pair
        rc = main(["align", p0, p1, "--block-rows", "32", "--sra-rows", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best score:" in out
        assert "crosspoints:" in out

    def test_align_writes_artifacts(self, fasta_pair, tmp_path, capsys):
        p0, p1, s0, s1 = fasta_pair
        bin_path = tmp_path / "aln.bin"
        svg_path = tmp_path / "aln.svg"
        rc = main(["align", p0, p1, "--block-rows", "32",
                   "--binary-out", str(bin_path), "--svg-out", str(svg_path)])
        assert rc == 0
        binary = read_binary_alignment(bin_path)
        rebuilt = binary.reconstruct()
        assert rebuilt.end[0] <= len(s0)
        assert svg_path.read_text().startswith("<svg")

    def test_align_custom_scoring(self, fasta_pair, capsys):
        p0, p1, _, _ = fasta_pair
        rc = main(["align", p0, p1, "--block-rows", "32",
                   "--match", "2", "--mismatch", "-1",
                   "--gap-first", "3", "--gap-ext", "1"])
        assert rc == 0
        assert "best score:" in capsys.readouterr().out

    def test_align_paper_grids(self, fasta_pair, capsys):
        p0, p1, _, _ = fasta_pair
        rc = main(["align", p0, p1, "--paper-grids"])
        assert rc == 0

    def test_align_trace_metrics_progress_together(self, fasta_pair,
                                                   tmp_path, capsys):
        p0, p1, _, _ = fasta_pair
        # Trace path in a not-yet-existing directory: JsonLinesSink must
        # create the parents itself.
        trace = tmp_path / "deep" / "nested" / "trace.jsonl"
        rc = main(["align", p0, p1, "--block-rows", "32",
                   "--trace", str(trace), "--metrics", "--progress"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "best score:" in captured.out
        assert "stage1" in captured.err        # progress lines
        assert "metrics:" in captured.out or "stage1" in captured.out
        lines = [json.loads(line)
                 for line in trace.read_text().splitlines()]
        assert any(rec.get("name") == "pipeline" for rec in lines)

    def test_align_checkpoint_every_nested_workdir(self, fasta_pair,
                                                   tmp_path, capsys):
        """--checkpoint-every on a tiny input, with a workdir whose
        parents do not exist yet (regression: nested workdir creation)."""
        p0, p1, _, _ = fasta_pair
        workdir = tmp_path / "runs" / "2026" / "aug" / "job"
        rc = main(["align", p0, p1, "--block-rows", "32",
                   "--checkpoint-every", "64", "--workdir", str(workdir)])
        assert rc == 0
        assert "best score:" in capsys.readouterr().out
        assert (workdir / "manifest.json").exists()

    def test_batch_workers_zero_clean_error(self, tmp_path, capsys):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text('[{"catalog": "162Kx172K"}]')
        rc = main(["batch", str(spec_file), "--root", str(tmp_path / "svc"),
                   "--workers", "0"])
        assert rc == 2
        assert "workers must be positive" in capsys.readouterr().err

    def test_batch_max_jobs_zero_clean_error(self, tmp_path, capsys):
        """``--batch-max-jobs 1`` turns coalescing off; 0 is refused
        before the root or the trace file is opened."""
        spec_file = tmp_path / "specs.json"
        spec_file.write_text('[{"catalog": "162Kx172K"}]')
        rc = main(["batch", str(spec_file), "--root", str(tmp_path / "svc"),
                   "--trace", str(tmp_path / "trace.jsonl"),
                   "--batch-max-jobs", "0"])
        assert rc == 2
        assert "max_jobs must be positive" in capsys.readouterr().err
        assert not (tmp_path / "svc").exists()
        assert not (tmp_path / "trace.jsonl").exists()

    def test_batch_without_specs_or_resume(self, tmp_path, capsys):
        rc = main(["batch", "--root", str(tmp_path / "svc")])
        assert rc == 2
        assert "spec file" in capsys.readouterr().err

    def test_jobs_without_journal(self, tmp_path, capsys):
        rc = main(["jobs", "--root", str(tmp_path / "empty")])
        assert rc == 1
        assert "no journal" in capsys.readouterr().err

    def test_align_no_hit(self, tmp_path, capsys):
        a = tmp_path / "a.fasta"
        b = tmp_path / "b.fasta"
        a.write_text(">a\n" + "A" * 300 + "\n")
        b.write_text(">b\n" + "T" * 300 + "\n")
        rc = main(["align", str(a), str(b), "--block-rows", "32"])
        assert rc == 0
        assert "no positive-score alignment" in capsys.readouterr().out


class TestViewAndTools:
    def test_view_round_trip(self, fasta_pair, tmp_path, capsys):
        p0, p1, _, _ = fasta_pair
        bin_path = tmp_path / "aln.bin"
        main(["align", p0, p1, "--block-rows", "32",
              "--binary-out", str(bin_path)])
        capsys.readouterr()
        rc = main(["view", str(bin_path), p0, p1, "--width", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Alignment of" in out
        assert "chrA" in out

    def test_catalog_lists_entries(self, capsys):
        rc = main(["catalog", "--scale", "4096"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "32799Kx46944K" in out and "near-identical" in out

    def test_synth_writes_fasta(self, tmp_path, capsys):
        o0 = tmp_path / "s0.fa"
        o1 = tmp_path / "s1.fa"
        rc = main(["synth", "162Kx172K", str(o0), str(o1),
                   "--scale", "8192", "--seed", "3"])
        assert rc == 0
        assert o0.read_text().startswith(">")
        assert "wrote" in capsys.readouterr().out

    def test_synth_unknown_key(self, tmp_path):
        from repro.errors import SequenceError
        with pytest.raises(SequenceError):
            main(["synth", "bogus", str(tmp_path / "a"), str(tmp_path / "b")])

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_scan(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        from repro.sequences import mutate, random_dna, MutationProfile
        query = random_dna(80, rng, "query")
        subjects = [random_dna(90, rng, f"s{k}") for k in range(6)]
        subjects[3] = mutate(query, MutationProfile(substitution=0.05,
                                                    insertion=0, deletion=0),
                             rng, "hit")
        write_fasta(tmp_path / "q.fa", query)
        write_fasta(tmp_path / "db.fa", *subjects)
        rc = main(["scan", str(tmp_path / "q.fa"), str(tmp_path / "db.fa"),
                   "--top", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split()[-1] == "hit"

    def test_pack(self, fasta_pair, tmp_path, capsys):
        p0, _, s0, _ = fasta_pair
        out = tmp_path / "a.seq"
        rc = main(["pack", p0, str(out)])
        assert rc == 0
        from repro.sequences import open_packed
        assert len(open_packed(out)) == len(s0)

    def test_view_corrupt_binary_clean_error(self, fasta_pair, tmp_path,
                                             capsys):
        from repro.integrity import corrupt_file

        p0, p1, _, _ = fasta_pair
        bin_path = tmp_path / "aln.bin"
        main(["align", p0, p1, "--block-rows", "32",
              "--binary-out", str(bin_path)])
        capsys.readouterr()
        corrupt_file(bin_path, "bitflip", seed=5)
        rc = main(["view", str(bin_path), p0, p1])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestFsck:
    @pytest.fixture
    def workdir(self, fasta_pair, tmp_path, capsys):
        p0, p1, _, _ = fasta_pair
        wd = tmp_path / "wd"
        rc = main(["align", p0, p1, "--block-rows", "32", "--sra-rows", "4",
                   "--checkpoint-every", "64", "--workdir", str(wd)])
        assert rc == 0
        capsys.readouterr()
        return wd

    def test_fsck_clean_tree_exits_zero(self, workdir, capsys):
        rc = main(["fsck", str(workdir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 problem(s)" in out

    def test_fsck_detects_then_repairs(self, workdir, capsys):
        from repro.integrity import corrupt_file

        log = workdir / "sra" / "stage1_rows.lines"
        assert log.stat().st_size
        corrupt_file(log, "bitflip", seed=1)
        rc = main(["fsck", str(workdir)])
        assert rc == 1
        assert "bad-frame" in capsys.readouterr().out

        rc = main(["fsck", str(workdir), "--repair"])
        assert rc == 0
        assert "repaired" in capsys.readouterr().out
        # The damaged log was preserved, not destroyed.
        assert list((workdir / "sra" / "quarantine").iterdir())

        rc = main(["fsck", str(workdir), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True and report["findings"] == []
