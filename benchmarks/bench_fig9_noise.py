"""Figure 9: NSKG noise removes the degree-plot oscillation.

Generates Scale-16 graphs (paper: 27) with noise N = 0, 0.05, 0.1 and
measures the oscillation score of the log-log degree plot.  The paper's
claim: the oscillation visible at N=0 disappears as N grows.
"""

import pytest

from repro.analysis import out_degrees
from repro.core.generator import RecursiveVectorGenerator
from repro.experiments import figure9_rows

SCALE = 16
SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def scores():
    """Mean oscillation score over several seeds (single-seed scores vary
    by ~20%; the noise effect is on the mean), by noise N."""
    return {row["noise"]: row["oscillation"]
            for row in figure9_rows(scale=SCALE, seeds=SEEDS)}


def test_figure9_table(benchmark, scores, table):
    rows = benchmark.pedantic(
        lambda: [[n, s] for n, s in scores.items()],
        rounds=1, iterations=1)
    table("Figure 9: mean oscillation score vs noise N "
          f"(scale {SCALE}, {len(SEEDS)} seeds)",
          ["noise N", "oscillation score"], rows)


def test_noise_reduces_oscillation(benchmark, scores):
    result = benchmark.pedantic(lambda: scores, rounds=1, iterations=1)
    assert result[0.05] < result[0.0]
    assert result[0.1] < result[0.0]


def test_oscillation_drop_is_substantial(benchmark, scores):
    """The paper's plots show the oscillation essentially disappearing;
    require at least a ~20% mean drop at N = 0.1."""
    result = benchmark.pedantic(lambda: scores, rounds=1, iterations=1)
    assert result[0.1] < 0.85 * result[0.0]


def test_noisy_graph_keeps_power_law(benchmark):
    """Noise must not destroy the realistic power-law shape."""
    from repro.analysis import fit_kronecker_class_slope

    def run():
        g = RecursiveVectorGenerator(SCALE, 16, seed=10, noise=0.1)
        return fit_kronecker_class_slope(
            out_degrees(g.edges(), g.num_vertices))

    slope = benchmark.pedantic(run, rounds=1, iterations=1)
    assert -2.2 < slope < -1.2


def test_generation_cost_of_noise(benchmark):
    """NSKG noise is essentially free in the recursive vector model (the
    noisy RecVec of Lemma 8 costs the same O(log|V|) build)."""
    g = RecursiveVectorGenerator(13, 16, seed=11, noise=0.1)
    edges = benchmark(g.edges)
    assert edges.shape[0] > 100000
