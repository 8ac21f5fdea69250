"""Table 2: the naive CDF-vector methods vs the recursive vector.

Measures, per destination determination, the three (data structure,
search) combinations of Table 2 and their memory footprints:

- CDF vector + linear search  — O(|V|) time, O(|V|) space
- CDF vector + binary search  — O(log|V|) time, O(|V|) space
- RecVec + binary search      — O(log|V|) time, O(log|V|) space
"""

import numpy as np
import pytest

from repro.core.probability import brute_force_cdf
from repro.core.recvec import (build_recvec, determine_edge,
                               determine_edge_cdf)
from repro.core.seed import GRAPH500
from repro.experiments import table2_rows

SCALE = 12
U = 1234
N_DRAWS = 2000


@pytest.fixture(scope="module")
def structures():
    cdf = brute_force_cdf(GRAPH500, U, SCALE)
    recvec = build_recvec(GRAPH500, U, SCALE)
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, float(cdf[-1]), size=N_DRAWS)
    return cdf, recvec, xs


def test_cdf_linear_search(benchmark, structures):
    cdf, _, xs = structures
    benchmark(lambda: [determine_edge_cdf(x, cdf, "linear")
                       for x in xs[:50]])


def test_cdf_binary_search(benchmark, structures):
    cdf, _, xs = structures
    benchmark(lambda: [determine_edge_cdf(x, cdf, "binary") for x in xs])


def test_recvec_binary_search(benchmark, structures):
    _, recvec, xs = structures
    benchmark(lambda: [determine_edge(x, recvec) for x in xs])


def test_table2_summary(benchmark, structures, table):
    """Correctness + the space side of Table 2, printed."""
    cdf, recvec, xs = structures

    def check():
        mismatches = sum(
            determine_edge(x, recvec) != determine_edge_cdf(x, cdf)
            for x in xs)
        return mismatches

    mismatches = benchmark.pedantic(check, rounds=1, iterations=1)
    assert mismatches == 0
    rows = table2_rows(SCALE)
    table("Table 2: search structures (scale 12)",
          ["structure", "search", "time complexity", "entries", "bytes"],
          [list(row.values()) for row in rows])
    # The paper's space claim: RecVec is log-sized, the CDF vector is
    # |V|-sized.
    cdf_row, _, recvec_row = rows
    assert recvec_row["entries"] == SCALE + 1
    assert cdf_row["entries"] == (1 << SCALE) + 1


def test_trillion_scale_recvec_is_tiny(benchmark):
    """The paper's example: at |V| = 2^36 the RecVec is ~37 entries
    (~300 bytes) while a CDF vector would need ~274 GB."""
    rv = benchmark(lambda: build_recvec(GRAPH500, 12345, 36))
    assert rv.size == 37
    assert rv.nbytes < 512
    cdf_vector_bytes = (2 ** 36) * 4       # 4-byte floats, per the paper
    assert cdf_vector_bytes > 250 * 2 ** 30
