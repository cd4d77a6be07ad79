"""Scaled synthetic counterpart of the paper's sequence catalog (Table II).

Each entry mirrors one row of Table II/III: the pair of paper sequences,
their real sizes, and the *regime* of their optimal local alignment
(near-identical genomes, partially homologous genomes, or unrelated
sequences sharing a short conserved core).  ``build`` generates a
deterministic synthetic pair at ``1/scale`` of the paper size that lives in
the same regime, so every downstream experiment (Tables III-X, Figures
11-12) exercises the same code paths the paper did.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
# Loaded here rather than on the first ``np.random`` access in ``build``:
# job workers fork from processes that import this module, so a lazy
# import would cost every job child ~15 ms.
import numpy.random  # noqa: F401

from repro.errors import SequenceError
from repro.sequences.sequence import Sequence
from repro.sequences.synth import (
    MutationProfile,
    embedded_core_pair,
    homologous_pair,
    mutate,
    random_dna,
)

#: Smallest sequence the scaled catalog will emit; below this the pipeline
#: degenerates (no room for even one special row).
MIN_SCALED_LENGTH = 384


@dataclass(frozen=True)
class CatalogEntry:
    """One comparison of Table II with its Table III ground-truth context."""

    key: str
    name0: str
    name1: str
    accession0: str
    accession1: str
    paper_size0: int
    paper_size1: int
    paper_score: int
    paper_length: int
    paper_gaps: int
    regime: str
    _builder: Callable[[int, int, np.random.Generator], tuple[Sequence, Sequence]]

    def scaled_sizes(self, scale: int) -> tuple[int, int]:
        """Sequence sizes at ``1/scale`` of the paper, floored at MIN_SCALED_LENGTH."""
        if scale <= 0:
            raise SequenceError("scale must be positive")
        return (max(MIN_SCALED_LENGTH, self.paper_size0 // scale),
                max(MIN_SCALED_LENGTH, self.paper_size1 // scale))

    def build(self, scale: int = 1024, seed: int = 0) -> tuple[Sequence, Sequence]:
        """Generate the deterministic synthetic pair for this entry.

        The per-entry seed component is a stable digest of the key — not
        ``hash()``, whose per-process salt would make "deterministic"
        hold only within one interpreter.  Cross-process reproducibility
        is what lets the job service cache catalog jobs by content digest
        and resume them from checkpoints in fresh worker processes.
        """
        m, n = self.scaled_sizes(scale)
        key_seed = zlib.crc32(self.key.encode("ascii"))
        rng = np.random.default_rng([seed, key_seed])
        s0, s1 = self._builder(m, n, rng)
        return (Sequence(s0.codes, name=self.name0, accession=self.accession0),
                Sequence(s1.codes, name=self.name1, accession=self.accession1))


def _core_builder(core_frac: float, profile: MutationProfile):
    """Unrelated flanks with a conserved core covering ``core_frac`` of S0."""

    def build(m: int, n: int, rng: np.random.Generator):
        core = max(32, int(min(m, n) * core_frac))
        return embedded_core_pair(m, n, core, rng, profile=profile)

    return build


def _homologous_builder(profile: MutationProfile):
    """Two descendants of one ancestor; alignment spans ~the whole matrix."""

    def build(m: int, n: int, rng: np.random.Generator):
        s0, s1 = homologous_pair(min(m, n), rng, profile=profile)
        return s0, s1

    return build


def _prefix_homolog_builder(prefix_frac: float, profile: MutationProfile):
    """S1 = unrelated prefix + homolog of S0 (the human/chimp chr21-chr22 shape:
    chimp chr22 aligns into the tail of human chr21, Table III start (0, 13.8M))."""

    def build(m: int, n: int, rng: np.random.Generator):
        prefix = int(n * prefix_frac)
        ancestor = random_dna(max(32, min(m, n - prefix)), rng, name="ancestor")
        s0 = mutate(ancestor, profile, rng)
        tail = mutate(ancestor, profile, rng)
        head = random_dna(max(1, prefix), rng)
        s1 = Sequence(np.concatenate([head.codes, tail.codes]))
        return s0, s1

    return build


# Mutation profiles per regime, tuned so the scaled pairs land near the
# paper's identity levels (Table III / Table X):
#  - near-identical genomes (Bacillus Ames vs Sterne): ~99.9% identity
_NEAR_IDENTICAL = MutationProfile(substitution=0.0005, insertion=0.0002,
                                  deletion=0.0002, indel_mean_len=2.0)
#  - diverged homologs (human/chimp, Table X: 94.4% match, 1.5% mismatch,
#    0.2% gap opens, 3.9% gap extensions => mean run ~20)
_DIVERGED = MutationProfile(substitution=0.008, insertion=0.0005,
                            deletion=0.0005, indel_mean_len=20.0)
#  - partial homology with heavy divergence (Chlamydia pair: score/len ~ 0.19)
_HEAVY = MutationProfile(substitution=0.10, insertion=0.006,
                         deletion=0.006, indel_mean_len=3.0)
#  - conserved cores inside unrelated DNA
_CORE = MutationProfile(substitution=0.04, insertion=0.002,
                        deletion=0.002, indel_mean_len=2.0)

CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("162Kx172K", "Human herpesvirus 6B", "Human herpesvirus 4",
                 "NC_000898.1", "NC_007605.1", 162_114, 171_823,
                 18, 18, 0, "short-hit", _core_builder(0.04, _CORE)),
    CatalogEntry("543Kx536K", "Agrobacterium tumefaciens", "Rhizobium sp.",
                 "NC_003064.2", "NC_000914.1", 542_868, 536_165,
                 48, 92, 0, "short-hit", _core_builder(0.05, _CORE)),
    CatalogEntry("1044Kx1073K", "Chlamydia trachomatis", "Chlamydia muridarum",
                 "CP000051.1", "AE002160.2", 1_044_459, 1_072_950,
                 88_353, 471_858, 14_021, "partial-homology",
                 _core_builder(0.45, _HEAVY)),
    CatalogEntry("3147Kx3283K", "Corynebacterium efficiens", "Corynebacterium glutamicum",
                 "BA000035.2", "BX927147.1", 3_147_090, 3_282_708,
                 4_226, 14_554, 891, "short-hit", _core_builder(0.006, _CORE)),
    CatalogEntry("5227Kx5229K", "Bacillus anthracis Ames", "Bacillus anthracis Sterne",
                 "AE016879.1", "AE017225.1", 5_227_293, 5_228_663,
                 5_220_960, 5_229_192, 2_430, "near-identical",
                 _homologous_builder(_NEAR_IDENTICAL)),
    CatalogEntry("7146Kx5227K", "Rhodopirellula baltica SH 1", "Bacillus anthracis Ames",
                 "NC_005027.1", "NC_003997.3", 7_145_576, 5_227_293,
                 172, 565, 18, "short-hit", _core_builder(0.0015, _CORE)),
    CatalogEntry("23012Kx24544K", "D. melanogaster chr 2L", "D. melanogaster chr 3L",
                 "NT_033779.4", "NT_037436.3", 23_011_544, 24_543_557,
                 9_063, 9_107, 6, "short-hit", _core_builder(0.0008, _CORE)),
    CatalogEntry("32799Kx46944K", "Pan troglodytes chr 22", "Homo sapiens chr 21",
                 "BA000046.3", "NC_000021.7", 32_799_110, 46_944_323,
                 27_206_434, 33_583_457, 1_371_283, "prefix-homology",
                 _prefix_homolog_builder(0.295, _DIVERGED)),
)

_BY_KEY = {entry.key: entry for entry in CATALOG}


def get_entry(key: str) -> CatalogEntry:
    """Look an entry up by its Table II key (e.g. ``"5227Kx5229K"``)."""
    try:
        return _BY_KEY[key]
    except KeyError:
        raise SequenceError(
            f"unknown catalog entry {key!r}; known: {sorted(_BY_KEY)}") from None
