"""Cross-stack property-based tests (hypothesis).

These exercise the whole pipeline with randomized configurations —
arbitrary valid seed matrices, scales, edge factors, noise levels — and
assert the invariants that must hold for *every* configuration:
well-formed output, determinism, partition independence, dedup, CDF
consistency, and format round-trips.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.generator import RecursiveVectorGenerator
from repro.core.noise import NoisySeedStack, max_noise
from repro.core.probability import brute_force_cdf
from repro.core.recvec import build_recvec, determine_edge
from repro.core.reference import ReferenceGenerator
from repro.core.seed import SeedMatrix


@st.composite
def seed_matrices(draw):
    """Arbitrary strictly positive, normalized 2x2 seeds."""
    weights = [draw(st.floats(min_value=0.05, max_value=1.0))
               for _ in range(4)]
    total = sum(weights)
    return SeedMatrix.rmat(*(w / total for w in weights))


@st.composite
def generator_configs(draw):
    return {
        "scale": draw(st.integers(min_value=4, max_value=10)),
        "edge_factor": draw(st.integers(min_value=1, max_value=8)),
        "seed_matrix": draw(seed_matrices()),
        "seed": draw(st.integers(min_value=0, max_value=2**31)),
    }


@settings(max_examples=20, deadline=None)
@given(generator_configs())
def test_generated_graph_is_wellformed(config):
    """Every configuration yields in-range, duplicate-free edges with
    realized count near the target."""
    g = RecursiveVectorGenerator(**config)
    edges = g.edges()
    n = g.num_vertices
    if edges.shape[0]:
        assert edges.min() >= 0
        assert edges.max() < n
        packed = edges[:, 0] * np.int64(n) + edges[:, 1]
        assert np.unique(packed).size == edges.shape[0]
    # Realized |E| equals the drawn degree sequence exactly and never
    # overshoots the target by more than sampling noise.  (It may land
    # well below the target at tiny scales with extreme seeds, where hub
    # scopes clip at |V| — a graph simply cannot hold that many distinct
    # edges in its hot rows.)
    target = g.num_edges
    assert edges.shape[0] == int(g.degrees().sum())
    assert edges.shape[0] < target + 5 * np.sqrt(target) + 10
    clipped = (g.degrees() >= g.num_vertices).any()
    if not clipped:
        assert abs(edges.shape[0] - target) < 5 * np.sqrt(target) + 10


@settings(max_examples=15, deadline=None)
@given(generator_configs(),
       st.integers(min_value=1, max_value=40))
def test_partition_independence_property(config, cut):
    """Any split point produces the same graph as a whole-range run."""
    g1 = RecursiveVectorGenerator(**config)
    whole = g1.edges()
    n = g1.num_vertices
    cut = min(cut * (n // 41) + 1, n - 1)
    g2 = RecursiveVectorGenerator(**config)
    part_a = g2.edges(0, cut)
    part_b = RecursiveVectorGenerator(**config).edges(cut, n)
    np.testing.assert_array_equal(whole,
                                  np.concatenate([part_a, part_b]))


@settings(max_examples=20, deadline=None)
@given(seed_matrices(), st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=255),
       st.floats(min_value=0.0, max_value=0.999))
def test_recvec_inverts_cdf_for_any_seed(seed_matrix, levels, u, frac):
    """Algorithm 5 == brute-force CDF inversion for arbitrary seeds."""
    u &= (1 << levels) - 1
    recvec = build_recvec(seed_matrix, u, levels)
    cdf = brute_force_cdf(seed_matrix, u, levels)
    x = frac * float(cdf[-1])
    v = determine_edge(x, recvec)
    assert cdf[v] <= x < cdf[v + 1] or (x >= cdf[-2] and v == len(cdf) - 2)


@settings(max_examples=20, deadline=None)
@given(seed_matrices(), st.integers(min_value=2, max_value=10))
def test_recvec_monotone_for_any_seed(seed_matrix, levels):
    for u in (0, (1 << levels) - 1, 1):
        rv = build_recvec(seed_matrix, u, levels)
        assert np.all(np.diff(rv) >= -1e-15)
        assert rv[0] >= 0


@settings(max_examples=15, deadline=None)
@given(seed_matrices(), st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=2**31))
def test_noisy_stack_total_mass_one(seed_matrix, levels, rng_seed):
    noise = max_noise(seed_matrix) * 0.9
    stack = NoisySeedStack.draw(seed_matrix, levels, noise,
                                np.random.default_rng(rng_seed))
    total = stack.row_probabilities(
        np.arange(1 << levels, dtype=np.uint64)).sum()
    assert abs(float(total) - 1.0) < 1e-9


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(generator_configs(),
       st.sampled_from(["tsv", "adj6", "csr6"]))
def test_format_roundtrip_any_graph(tmp_path, config, fmt_name):
    """Any generated graph survives any format round-trip."""
    import uuid

    from repro.formats import get_format
    g = RecursiveVectorGenerator(**config)
    edges = g.edges()
    fmt = get_format(fmt_name)
    path = tmp_path / f"{uuid.uuid4().hex}.{fmt_name}"
    fmt.write(path, g.iter_adjacency(), g.num_vertices)
    back = fmt.read_edges(path)
    np.testing.assert_array_equal(back, edges)


@settings(max_examples=15, deadline=None)
@given(generator_configs())
def test_degrees_are_consistent_with_edges(config):
    g = RecursiveVectorGenerator(**config)
    degrees = g.degrees()
    edges = g.edges()
    realized = np.bincount(edges[:, 0], minlength=g.num_vertices) \
        if edges.shape[0] else np.zeros(g.num_vertices, dtype=np.int64)
    np.testing.assert_array_equal(degrees, realized)


@settings(max_examples=10, deadline=None)
@given(generator_configs(), st.floats(min_value=0.1, max_value=0.9))
def test_noise_keeps_graph_wellformed(config, noise_fraction):
    noise = noise_fraction * max_noise(config["seed_matrix"])
    g = RecursiveVectorGenerator(noise=noise, **config)
    edges = g.edges()
    n = g.num_vertices
    if edges.shape[0]:
        packed = edges[:, 0] * np.int64(n) + edges[:, 1]
        assert np.unique(packed).size == edges.shape[0]


@settings(max_examples=10, deadline=None)
@given(generator_configs())
def test_engines_preserve_edge_budget(config):
    """Both engines respect the realized-degree sequence exactly (they
    share the Theorem 1 draws)."""
    counts = {}
    for engine, make in (("bitwise", RecursiveVectorGenerator),
                         ("reference", ReferenceGenerator)):
        g = make(**config)
        counts[engine] = np.bincount(g.edges()[:, 0],
                                     minlength=g.num_vertices) \
            if g.edges().shape[0] else np.zeros(g.num_vertices)
    np.testing.assert_array_equal(counts["bitwise"],
                                  counts["reference"])
