"""Ablations of this implementation's own design choices (see DESIGN.md).

Not a paper figure — these benches justify the engineering decisions the
reproduction makes on top of the paper's algorithm:

- engine choice (the bitwise kernel vs the reference oracle),
- block size (randomness/batching granularity),
- duplicate elimination on/off,
- Theorem 1 approximation (normal vs exact binomial vs Poisson).
"""

import time

import numpy as np

from repro.core.generator import RecursiveVectorGenerator
from repro.core.reference import ReferenceGenerator

SCALE = 13


def test_engine_bitwise_throughput(benchmark):
    g = RecursiveVectorGenerator(SCALE, 16, seed=1)
    edges = benchmark(g.edges)
    assert edges.shape[0] > 100000


def test_engine_reference_throughput(benchmark):
    # Smaller scale: the per-edge Python loop is ~100x slower.
    g = ReferenceGenerator(10, 16, seed=1)
    edges = benchmark.pedantic(g.edges, rounds=1, iterations=1)
    assert edges.shape[0] > 14000


def test_engine_speed_ordering(benchmark, table):
    """bitwise >> reference in edges/second."""

    def run():
        out = {}
        for engine, make, scale in (
                ("reference", ReferenceGenerator, 10),
                ("bitwise", RecursiveVectorGenerator, SCALE)):
            g = make(scale, 16, seed=2)
            t0 = time.perf_counter()
            edges = g.edges()
            out[engine] = edges.shape[0] / (time.perf_counter() - t0)
        return out

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    table("Design ablation: engine throughput",
          ["engine", "edges/s"],
          [[k, f"{v:,.0f}"] for k, v in rates.items()])
    assert rates["bitwise"] > 3 * rates["reference"]


def test_block_size_ablation(benchmark, table):
    """Bigger blocks amortize per-block numpy overhead until arrays no
    longer fit caches; the default (4096) sits on the flat part."""

    def run():
        out = []
        for block_size in (64, 512, 4096, 16384):
            g = RecursiveVectorGenerator(SCALE, 16, seed=3,
                                         block_size=block_size)
            t0 = time.perf_counter()
            g.edges()
            out.append([block_size, round(time.perf_counter() - t0, 4)])
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table("Design ablation: block size", ["block_size", "seconds"], rows)
    times = {r[0]: r[1] for r in rows}
    assert times[4096] < times[64]      # batching must pay off


def test_dedup_cost(benchmark, table):
    """Algorithm 2's set semantics (dedup + top-up) versus raw output."""

    def run():
        out = {}
        for dedup in (True, False):
            g = RecursiveVectorGenerator(SCALE, 16, seed=4, dedup=dedup)
            t0 = time.perf_counter()
            edges = g.edges()
            out[dedup] = (time.perf_counter() - t0, edges.shape[0])
        return out

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    table("Design ablation: duplicate elimination",
          ["dedup", "seconds", "edges"],
          [[k, round(v[0], 4), v[1]] for k, v in result.items()])
    # Dedup costs extra time but the budget is still met.
    assert result[True][1] <= result[False][1]


def test_degree_method_ablation(benchmark, table):
    """Theorem 1's normal approximation vs the exact binomial split vs
    TeG's deterministic sizes: all three must deliver ~|E| edges with
    similar degree spread, and the split exactly |E|."""

    def run():
        out = []
        for method in ("normal", "split", "deterministic"):
            g = RecursiveVectorGenerator(SCALE, 16, seed=5,
                                         degree_method=method)
            edges = g.edges()
            deg = np.bincount(edges[:, 0], minlength=g.num_vertices)
            out.append([method, edges.shape[0], round(float(deg.std()), 2)])
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table("Design ablation: Theorem 1 approximation",
          ["method", "edges", "degree std"], rows)
    target = 16 * (1 << SCALE)
    for method, count, _ in rows:
        assert abs(count - target) / target < 0.05, method
    assert {m: count for m, count, _ in rows}["split"] == target
    stds = [r[2] for r in rows]
    assert max(stds) / min(stds) < 1.2
