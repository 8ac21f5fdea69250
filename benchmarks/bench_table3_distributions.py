"""Table 3: seed parameters and the degree distributions they induce.

For each Table 3 row, generates a graph and measures the induced
distribution against the closed-form prediction:

- ``Kout`` rows: Zipfian out-degree with slope
  ``log2(gamma+delta) - log2(alpha+beta)``;
- ``Kin`` rows: Zipfian in-degree with slope
  ``log2(beta+delta) - log2(alpha+gamma)``;
- the uniform seed: Gaussian degrees with mean ``|E|/|V|``.
"""

import numpy as np

from repro.analysis import (fit_gaussian, fit_kronecker_class_slope,
                            in_degrees, out_degrees)
from repro.core.generator import RecursiveVectorGenerator
from repro.core.seed import UNIFORM, SeedMatrix
from repro.rich_graph import seed_for_in_slope, seed_for_out_slope

SCALE = 13


def test_out_slope_rows(benchmark, table):
    def measure():
        rows = []
        for target in (-1.0, -1.662, -2.2):
            seed = seed_for_out_slope(target)
            g = RecursiveVectorGenerator(SCALE, 16, seed, seed=1)
            deg = out_degrees(g.edges(), g.num_vertices)
            rows.append([f"Kout zipf({target})",
                         round(seed.out_zipf_slope(), 3),
                         round(fit_kronecker_class_slope(deg), 3)])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table("Table 3 (out-degree): predicted vs measured Zipf slope",
          ["seed", "predicted", "measured"], rows)
    for _, predicted, measured in rows:
        assert abs(predicted - measured) < 0.3


def test_in_slope_rows(benchmark, table):
    def measure():
        rows = []
        for target in (-1.2, -1.662):
            seed = seed_for_in_slope(target)
            g = RecursiveVectorGenerator(SCALE, 16, seed, seed=2)
            deg = in_degrees(g.edges(), g.num_vertices)
            rows.append([f"Kin zipf({target})",
                         round(seed.in_zipf_slope(), 3),
                         round(fit_kronecker_class_slope(deg), 3)])
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table("Table 3 (in-degree): predicted vs measured Zipf slope",
          ["seed", "predicted", "measured"], rows)
    for _, predicted, measured in rows:
        assert abs(predicted - measured) < 0.35


def test_uniform_seed_gaussian_row(benchmark, table):
    def measure():
        g = RecursiveVectorGenerator(SCALE, 16, UNIFORM, seed=3)
        deg = out_degrees(g.edges(), g.num_vertices)
        return fit_gaussian(deg)

    fit = benchmark.pedantic(measure, rounds=1, iterations=1)
    table("Table 3 (uniform seed): Gaussian with mean |E|/|V|",
          ["statistic", "value", "expected"],
          [["mean", round(fit.mean, 2), 16.0],
           ["excess kurtosis", round(fit.excess_kurtosis, 3), "~0"]])
    assert abs(fit.mean - 16.0) < 0.5
    assert fit.looks_gaussian


def test_graph500_seed_is_minus_1662(benchmark):
    """The paper's sentence: 'the standard seed parameters ... match the
    Zipfian distribution with a slope -1.662'."""
    seed = SeedMatrix.graph500()
    slope = benchmark(seed.out_zipf_slope)
    assert abs(slope + 1.662) < 0.002
