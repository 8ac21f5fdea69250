"""Figure 10: the ERV model's rich bibliographical graph.

The paper shows the out-degree of the ``author`` rectangle following the
requested Zipfian and the in-degree following the requested Gaussian.
Regenerates that rectangle and validates both marginals.
"""

import pytest

from repro.experiments import figure10_rows
from repro.rich_graph import RichGraphGenerator, bibliographical_config

VERTICES = 1 << 14


@pytest.fixture(scope="module")
def sides():
    """:func:`repro.experiments.figure10_rows`: the ``out`` and ``in``
    marginals of the author rectangle."""
    return figure10_rows(num_vertices=VERTICES, seed=21)


def test_figure10_table(benchmark, sides, table):
    data = benchmark.pedantic(
        lambda: [[r["side"], r["requested"], r["target"], r["measured"]]
                 for r in sides], rounds=1, iterations=1)
    table("Figure 10: author rectangle degree marginals "
          "(target: requested slope, or mean |E|/|Vpaper|)",
          ["side", "requested", "target", "measured"], data)


def test_out_degree_zipfian(benchmark, sides):
    out_row, _ = sides
    slope = benchmark.pedantic(lambda: out_row["slope"], rounds=1,
                               iterations=1)
    assert abs(slope - out_row["target"]) < 0.3


def test_in_degree_gaussian(benchmark, sides):
    _, in_row = sides
    kurtosis = benchmark.pedantic(lambda: in_row["excess_kurtosis"],
                                  rounds=1, iterations=1)
    assert abs(kurtosis) < 1.0          # GaussianFit.looks_gaussian
    expected_mean = in_row["target"]
    assert abs(in_row["mean"] - expected_mean) / expected_mean < 0.05


def test_out_degree_not_gaussian(benchmark, sides):
    """The two marginals really are different families."""
    out_row, _ = sides
    kurtosis = benchmark.pedantic(lambda: out_row["excess_kurtosis"],
                                  rounds=1, iterations=1)
    assert abs(kurtosis) >= 1.0         # not GaussianFit.looks_gaussian


def test_rich_generation_throughput(benchmark):
    config = bibliographical_config(1 << 12)

    def run():
        return RichGraphGenerator(config, seed=22).all_triples()

    triples = benchmark(run)
    assert triples.shape[0] > 10000
