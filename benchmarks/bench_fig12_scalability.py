"""Figure 12: TrillionG scalability — time ∝ |E|, memory ~ O(d_max).

Measured part: generation time across scales 12-16 on this machine must
grow linearly in |E| (the paper: "the elapsed time is strictly
proportional to the scale"), and the largest working-set proxy (d_max)
must grow like ``16 * 1.52^scale`` — sublinearly in |E|.  Paper-scale
part: the cost model's 33-38 series against the published numbers,
including the headline "one trillion edges in under two hours on 10 PCs".
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import PAPER
from repro.cluster import PAPER_CLUSTER, CostModel
from repro.core.generator import RecursiveVectorGenerator

MEASURED_SCALES = (12, 13, 14, 15, 16)


@pytest.fixture(scope="module")
def measured():
    rows = []
    for scale in MEASURED_SCALES:
        g = RecursiveVectorGenerator(scale, 16, seed=8)
        t0 = time.perf_counter()
        edges = g.edges()
        dt = time.perf_counter() - t0
        dmax = int(np.bincount(edges[:, 0]).max())
        rows.append((scale, dt, edges.shape[0], dmax))
    return rows


def test_measured_table(benchmark, measured, table):
    data = benchmark.pedantic(
        lambda: [[s, round(t, 3), m, d] for s, t, m, d in measured],
        rounds=1, iterations=1)
    table("Figure 12 measured (this machine)",
          ["scale", "seconds", "edges", "d_max"], data)


def test_measured_time_linear_in_edges(benchmark, measured):
    """Doubling |E| should roughly double elapsed time (0.5x-3x window
    tolerates small-scale constant overheads)."""

    def ratios():
        return [measured[i + 1][1] / measured[i][1]
                for i in range(len(measured) - 1)]

    values = benchmark.pedantic(ratios, rounds=1, iterations=1)
    # Judge the overall trend (first to last): 16x the edges should cost
    # ~16x the time, i.e. the per-step geometric mean ratio is ~2.
    overall = measured[-1][1] / measured[0][1]
    steps = len(measured) - 1
    assert 1.4 < overall ** (1 / steps) < 2.8, values


def test_measured_dmax_sublinear(benchmark, measured):
    """d_max grows ~1.52x per scale while |E| doubles — the memory story
    of Figure 12(b)."""

    def ratios():
        return [measured[i + 1][3] / measured[i][3]
                for i in range(len(measured) - 1)]

    values = benchmark.pedantic(ratios, rounds=1, iterations=1)
    mean_ratio = float(np.prod(values) ** (1 / len(values)))
    assert 1.3 < mean_ratio < 1.75


def test_paper_scale_table(benchmark, table):
    model = CostModel(PAPER_CLUSTER)

    def rows():
        out = []
        for scale in range(33, 39):
            est = model.trilliong(scale, "adj6")
            out.append([scale, round(est.elapsed_seconds),
                        PAPER["fig12_time"][scale],
                        round(est.peak_memory_bytes / 2**20),
                        PAPER["fig12_mem_mb"][scale]])
        return out

    data = benchmark.pedantic(rows, rounds=1, iterations=1)
    table("Figure 12 paper scale: cost model vs published",
          ["scale", "ours (s)", "paper (s)", "ours mem (MB)",
           "paper mem (MB)"], data)
    for scale, ours_s, paper_s, ours_mb, paper_mb in data:
        assert 0.6 < ours_s / paper_s < 1.6, scale
        assert 0.85 < ours_mb / paper_mb < 1.15, scale


def test_trillion_edges_headline(benchmark):
    """'It can generate a graph of a trillion edges ... within two hours
    only using 10 PCs' — scale 36 is 2^40 ≈ 1.1e12 edges."""
    model = CostModel(PAPER_CLUSTER)
    est = benchmark.pedantic(lambda: model.trilliong(36, "adj6"),
                             rounds=1, iterations=1)
    assert not est.oom
    assert est.elapsed_seconds < 2.5 * 3600
    assert model.num_edges(36) > 1e12
