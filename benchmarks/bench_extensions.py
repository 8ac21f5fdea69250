"""Benches for the beyond-the-paper extensions (see DESIGN.md §5).

Not paper figures — these quantify the extensions' quality claims:

- seed recovery error of the moment-matched fit shrinks with graph size
  (GSCALER-style scaling rests on it);
- the n x n generator's throughput and correctness at n = 3;
- checkpointed generation costs no measurable overhead versus a straight
  run.
"""

import time

import numpy as np
import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.core.nary import NAryRecursiveVectorGenerator
from repro.core.seed import GRAPH500, SeedMatrix
from repro.fit import fit_seed_matrix


def fit_error(scale: int, seed: int) -> float:
    edges = RecursiveVectorGenerator(scale, 16, seed=seed).edges()
    fit = fit_seed_matrix(edges, 1 << scale)
    got = np.array(fit.seed_matrix.as_tuple())
    want = np.array(GRAPH500.as_tuple())
    return float(np.abs(got - want).max())


def test_fit_error_shrinks_with_scale(benchmark, table):
    def run():
        return [[scale, round(fit_error(scale, 17), 4)]
                for scale in (10, 12, 14)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table("Extension: seed-recovery error vs scale",
          ["scale", "max |entry error|"], rows)
    errors = [r[1] for r in rows]
    assert errors[-1] < errors[0]
    assert errors[-1] < 0.03


def test_nary_throughput(benchmark):
    seed3 = SeedMatrix(np.array([[0.30, 0.12, 0.08],
                                 [0.12, 0.10, 0.05],
                                 [0.08, 0.05, 0.10]]))
    g = NAryRecursiveVectorGenerator(seed3, 9, num_edges=200000, seed=1)
    edges = benchmark.pedantic(g.edges, rounds=1, iterations=1)
    assert abs(edges.shape[0] - 200000) / 200000 < 0.05


def test_checkpoint_overhead(benchmark, tmp_path, table):
    """Checkpointing (atomic chunk renames + manifest writes) must stay
    within ~2x of a straight single-file write."""
    from repro.dist.checkpoint import CheckpointedRun
    from repro.formats import get_format

    def run():
        g1 = RecursiveVectorGenerator(12, 16, seed=3, block_size=256)
        t0 = time.perf_counter()
        get_format("adj6").write(tmp_path / "straight.adj6",
                                 g1.iter_adjacency(), g1.num_vertices)
        straight = time.perf_counter() - t0
        g2 = RecursiveVectorGenerator(12, 16, seed=3, block_size=256)
        t0 = time.perf_counter()
        CheckpointedRun(g2, tmp_path / "chunks",
                        blocks_per_chunk=2).run()
        checkpointed = time.perf_counter() - t0
        return straight, checkpointed

    straight, checkpointed = benchmark.pedantic(run, rounds=1,
                                                iterations=1)
    table("Extension: checkpointing overhead",
          ["mode", "seconds"],
          [["straight", round(straight, 3)],
           ["checkpointed (8 chunks)", round(checkpointed, 3)]])
    assert checkpointed < 3 * straight + 0.5


def test_empirical_distribution_fidelity(benchmark):
    """Data-dictionary degrees come back with the dictionary's exact
    support and frequencies."""
    from repro.rich_graph import Empirical, ErvGenerator, Gaussian

    def run():
        d = Empirical([2, 8, 32], [8, 3, 1])
        g = ErvGenerator(30000, 30000, 0, d, Gaussian(), seed=4)
        degrees = g.out_degrees()
        realized = {
            int(v): float((degrees == v).mean()) for v in (2, 8, 32)}
        return realized

    realized = benchmark.pedantic(run, rounds=1, iterations=1)
    expected = {2: 8 / 12, 8: 3 / 12, 32: 1 / 12}
    for value, frac in expected.items():
        assert abs(realized[value] - frac) < 0.01
