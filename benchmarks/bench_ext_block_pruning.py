"""Extension — block pruning (the optimization the paper's conclusion
points to; shipped as CUDAlign 3.0 in the lineage).

Measures the pruned tile fraction and cell savings across the catalog's
regimes, as ``gpusim.blocksim`` models them, next to what the
pipeline's own Stage 1 computes: its sweep prunes against a lower bound
on the optimum (``core.stage1.chain_bound``) and reports
``cells_computed`` against ``cells`` = m·n.  Stage 1 runs each pair at
the largest scale no coarser than the benchmark's that makes it wide
enough to take the window (``rowscan._PRUNE_MIN_WIDTH``).  The lineage
reports ~50% of the matrix pruned on similar chromosome pairs; the
score must be bit-identical with pruning on or off.
"""

from __future__ import annotations

from repro.align import rowscan
from repro.align.scoring import PAPER_SCHEME
from repro.core import run_stage1
from repro.gpusim import GTX_285, KernelGrid
from repro.gpusim.blocksim import simulate_stage1
from repro.sequences import get_entry
from repro.storage.sra import SpecialLineStore

from benchmarks.conftest import emit, pipeline_config

GRID = KernelGrid(blocks=4, threads=8, alpha=2)
NEAR_IDENTICAL, UNRELATED = "5227Kx5229K", "7146Kx5227K"


def stage1_scale(key: str, scale: int) -> int:
    """No coarser than ``scale``; S1 about 1.25x the pruning width."""
    return min(scale, get_entry(key).paper_size1 * 4
               // (5 * rowscan._PRUNE_MIN_WIDTH))


def test_ext_block_pruning(benchmark, scale):
    cases = [NEAR_IDENTICAL, "32799Kx46944K", UNRELATED]
    rows = []

    def run_all():
        out = []
        for key in cases:
            s0, s1 = get_entry(key).build(scale=scale, seed=0)
            plain = simulate_stage1(s0, s1, PAPER_SCHEME, GRID, GTX_285)
            pruned = simulate_stage1(s0, s1, PAPER_SCHEME, GRID, GTX_285,
                                     prune=True)
            w0, w1 = get_entry(key).build(scale=stage1_scale(key, scale),
                                          seed=0)
            config = pipeline_config(len(w1))
            stage1 = run_stage1(w0, w1, config,
                                SpecialLineStore(config.sra_bytes))
            out.append((key, plain, pruned, (len(w0), len(w1)), stage1))
        return out

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        f"Extension — block pruning (blocksim at scale 1/{scale})",
        "",
        f"{'comparison':<16} {'regime':<16} {'score':>8} {'pruned tiles':>13} "
        f"{'cells saved':>12} {'stage 1 m x n':>15} {'computed':>9}",
    ]
    for key, plain, pruned, (m, n), stage1 in rows:
        assert pruned.best == plain.best, key
        saved = 1 - pruned.cells / plain.cells
        shape = f"{m:,} x {n:,}"
        lines.append(
            f"{key:<16} {get_entry(key).regime:<16} {pruned.best:>8,} "
            f"{pruned.pruned_fraction:>12.1%} {saved:>11.1%} "
            f"{shape:>15} {stage1.cells_computed / stage1.cells:>8.1%}")
    # The near-identical pair must prune far more than the unrelated one.
    by_key = {key: (pruned, stage1) for key, _, pruned, _, stage1 in rows}
    assert by_key[NEAR_IDENTICAL][0].pruned_fraction > \
        by_key[UNRELATED][0].pruned_fraction + 0.1
    near, unrelated = by_key[NEAR_IDENTICAL][1], by_key[UNRELATED][1]
    assert near.cells_computed < 0.10 * near.cells
    assert unrelated.cells_computed > 0.95 * unrelated.cells
    lines += ["", "computed: the pipeline's Stage-1 cells_computed / cells "
              "(m x n), at the stage-1 shape shown",
              "lineage reference (CUDAlign 3.0): ~50% of blocks pruned "
              "on similar chromosome pairs; unrelated pairs prune little"]
    emit("ext_block_pruning", lines)
