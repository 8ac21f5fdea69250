"""Table 3: seed parameters and the degree distributions they induce.

For each Table 3 row, generates a graph and measures the induced
distribution against the closed-form prediction:

- ``Kout`` rows: Zipfian out-degree with slope
  ``log2(gamma+delta) - log2(alpha+beta)``;
- ``Kin`` rows: Zipfian in-degree with slope
  ``log2(beta+delta) - log2(alpha+gamma)``;
- the uniform seed: Gaussian degrees with mean ``|E|/|V|``.
"""

import pytest

from repro.core.seed import SeedMatrix
from repro.experiments import table3_rows

SCALE = 13


@pytest.fixture(scope="module")
def rows():
    """:func:`repro.experiments.table3_rows` with the ``Kout`` rows drawn
    at seed 1, the ``Kin`` rows at seed 2 and the uniform row at seed 3,
    by row label."""
    return {row["seed"]: row for row in table3_rows(SCALE, seeds=(1, 2, 3))}


def _slope_rows(rows, side):
    return [[r["seed"], r["predicted"], r["measured"]]
            for label, r in rows.items() if label.startswith(side)]


def test_out_slope_rows(benchmark, rows, table):
    data = benchmark.pedantic(lambda: _slope_rows(rows, "Kout"), rounds=1,
                              iterations=1)
    table("Table 3 (out-degree): predicted vs measured Zipf slope",
          ["seed", "predicted", "measured"], data)
    for _, predicted, measured in data:
        assert abs(predicted - measured) < 0.3


def test_in_slope_rows(benchmark, rows, table):
    data = benchmark.pedantic(lambda: _slope_rows(rows, "Kin"), rounds=1,
                              iterations=1)
    table("Table 3 (in-degree): predicted vs measured Zipf slope",
          ["seed", "predicted", "measured"], data)
    for _, predicted, measured in data:
        assert abs(predicted - measured) < 0.35


def test_uniform_seed_gaussian_row(benchmark, rows, table):
    row = benchmark.pedantic(lambda: rows["uniform (Gaussian)"], rounds=1,
                             iterations=1)
    table("Table 3 (uniform seed): Gaussian with mean |E|/|V|",
          ["statistic", "value", "expected"],
          [["mean", row["measured"], 16.0],
           ["excess kurtosis", row["excess_kurtosis"], "~0"]])
    assert abs(row["measured"] - 16.0) < 0.5
    assert abs(row["excess_kurtosis"]) < 1.0   # GaussianFit.looks_gaussian


def test_graph500_seed_is_minus_1662(benchmark):
    """The paper's sentence: 'the standard seed parameters ... match the
    Zipfian distribution with a slope -1.662'."""
    seed = SeedMatrix.graph500()
    slope = benchmark(seed.out_zipf_slope)
    assert abs(slope + 1.662) < 0.002
