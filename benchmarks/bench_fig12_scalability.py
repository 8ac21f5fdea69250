"""Figure 12: TrillionG scalability — time ∝ |E|, memory ~ O(d_max).

Measured part: generation time across scales 12-16 on this machine must
grow linearly in |E| (the paper: "the elapsed time is strictly
proportional to the scale"), and the largest working-set proxy (d_max)
must grow like ``16 * 1.52^scale`` — sublinearly in |E|.  Paper-scale
part: the cost model's 33-38 series against the published numbers (the
memory series and the headline "one trillion edges in under two hours
on 10 PCs" are asserted in ``tests/cluster/test_costmodel.py``).
"""

import time

import numpy as np
import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.experiments import figure12_rows

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
    rows = benchmark.pedantic(figure12_rows, rounds=1, iterations=1)
    table("Figure 12 paper scale: cost model vs published",
          ["scale", "ours (s)", "paper (s)", "ours mem (MB)",
           "paper mem (MB)"],
          [[r["scale"], r["elapsed"], r["paper"], r["peak_mem_MB"],
            r["paper_mem_MB"]] for r in rows])
    for r in rows:
        assert 0.6 < r["elapsed"] / r["paper"] < 1.6, r["scale"]
