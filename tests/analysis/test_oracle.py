"""The scope-size oracle: isolated scopes against the binomial mixture
and the sum of degrees against the |E| contract."""

import numpy as np
import pytest

from repro import RecursiveVectorGenerator
from repro.analysis.oracle import check_scope_law
from repro.analysis.theory import expected_degree_distribution
from repro.core.seed import GRAPH500


@pytest.mark.parametrize("direction", ["out", "in"])
@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("scale", [12, 13, 14, 15, 16])
def test_default_sizes_pass_the_oracle(scale, noise, direction):
    g = RecursiveVectorGenerator(scale, 16, seed=1, noise=noise,
                                 direction=direction)
    report = check_scope_law(g)
    assert report.passed, str(report)
    assert report.capped == 0
    assert report.degree_sum == g.num_edges


def test_noiseless_expectation_is_the_mixture_k0_term():
    scale, num_edges = 14, 16 << 14
    report = check_scope_law(RecursiveVectorGenerator(scale, seed=1))
    _, pmf = expected_degree_distribution(GRAPH500, scale, num_edges)
    assert report.expected_isolated == pytest.approx(pmf[0] * (1 << scale),
                                                     rel=1e-9)


def test_a_capped_scope_may_only_lower_the_sum():
    """At scale 9 the hub's expected size, 700, is over |V| = 512."""
    g = RecursiveVectorGenerator(9, 16, seed=1)
    report = check_scope_law(g)
    assert report.capped >= 1
    assert report.degree_sum < g.num_edges
    assert report.edges_ok


def test_the_judgement_can_tell():
    """TeG's deterministic sizes miss both checks."""
    report = check_scope_law(RecursiveVectorGenerator(
        14, 16, seed=1, degree_method="deterministic"))
    assert not report.isolated_ok
    assert not report.edges_ok
    assert abs(report.isolated_z) > 30


@pytest.mark.xfail(strict=True, reason=(
    "Theorem 1's independent normals: -5.2 % isolated sources at scale 18 "
    "(107 443 vs 113 377, z = -23), -6.0 % at scale 16 (z = -12), and "
    "the sum of degrees misses |E| by +0.2 %"))
def test_normal_sizes_pass_the_oracle():
    report = check_scope_law(RecursiveVectorGenerator(
        16, 16, seed=1, degree_method="normal"))
    assert report.passed, str(report)


def test_report_reads_like_its_verdict():
    report = check_scope_law(RecursiveVectorGenerator(12, seed=1))
    text = str(report)
    assert "FAIL" not in text
    assert str(report.degree_sum) in text
    assert np.isfinite(report.isolated_z)
