"""Cross-engine distributional agreement.

The production kernel (``bitwise``) and the oracle (``reference``)
implement the same stochastic process by different means; these tests
verify their outputs are statistically indistinguishable (chi-square on
destination histograms) and that the kernel matches the exact conditional
distribution P(v | u) at every parameter corner.
"""

from functools import reduce

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.generator import RecursiveVectorGenerator
from repro.core.reference import ReferenceGenerator
from repro.core.probability import edge_probability, row_probability
from repro.core.recvec import build_recvec, determine_edges
from repro.core.seed import GRAPH500, SeedMatrix

FIG3 = SeedMatrix.rmat(0.5, 0.2, 0.2, 0.1)

ENGINES = {"bitwise": RecursiveVectorGenerator,
           "reference": ReferenceGenerator}

#: (seed matrix, noise) corners for the kernel's goodness of fit: the
#: default, per-level probabilities, a heavy skew, and exact-zero
#: entries that force destination bits for some sources only.
KERNEL_CASES = {
    "graph500": (GRAPH500, 0.0),
    "noise": (GRAPH500, 0.1),
    "skewed": (SeedMatrix.rmat(0.9, 0.05, 0.04, 0.01), 0.0),
    "degenerate": (SeedMatrix.rmat(0.6, 0.0, 0.3, 0.1), 0.0),
}


def goodness_of_fit(counts: np.ndarray, expected: np.ndarray,
                    fixed_totals: int) -> float:
    """Chi-square p-value over the cells with expectation > 5;
    ``fixed_totals`` is the number of sums the counts are conditioned on."""
    keep = expected > 5
    chi2 = (((counts[keep] - expected[keep]) ** 2) / expected[keep]).sum()
    return sps.chi2.sf(chi2, int(keep.sum()) - fixed_totals)


def destination_histogram(engine: str, scale: int, seed: int) -> np.ndarray:
    g = ENGINES[engine](scale, 16, seed=seed)
    e = g.edges()
    return np.bincount(e[:, 1], minlength=1 << scale)


class TestSamplerMatchesExactDistribution:
    def test_recvec_sampler_chi_square(self):
        """Theorem 2 sampling reproduces P(v|u) (chi-square GOF)."""
        levels, u, n = 5, 11, 200000
        rv = build_recvec(GRAPH500, u, levels)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0, rv[-1], size=n)
        vs = determine_edges(xs, rv)
        counts = np.bincount(vs, minlength=1 << levels)
        p_row = row_probability(GRAPH500, u, levels)
        expected = np.array(
            [edge_probability(GRAPH500, u, v, levels) / p_row
             for v in range(1 << levels)]) * n
        assert goodness_of_fit(counts, expected, 1) > 1e-4

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_kernel_chi_square(self, case):
        """The production kernel, driven through the generator, draws
        each source's destinations from the exact P(v|u) — the Kronecker
        product of the per-level matrices, row-normalised."""
        matrix, noise = KERNEL_CASES[case]
        levels, n = 5, 1 << 5
        g = RecursiveVectorGenerator(levels, seed_matrix=matrix,
                                     num_edges=400000, noise=noise,
                                     dedup=False, seed=1)
        e = g.edges()
        counts = np.bincount(e[:, 0] * n + e[:, 1],
                             minlength=n * n).reshape(n, n)
        per_level = (g.process.stack.matrices if noise
                     else [matrix] * levels)
        full = reduce(np.kron, [m.entries for m in per_level])
        expected = (counts.sum(axis=1, keepdims=True)
                    * full / full.sum(axis=1, keepdims=True))
        assert counts[expected == 0].sum() == 0
        # Every source's total is fixed by its drawn scope size.
        rows_tested = int((expected > 5).any(axis=1).sum())
        assert goodness_of_fit(counts, expected, rows_tested) > 1e-4


class TestEnginesAgree:
    @pytest.mark.parametrize("other", ["reference"])
    def test_destination_distributions_match(self, other):
        """Two-sample chi-square between engines' destination histograms."""
        h1 = destination_histogram("bitwise", 9, seed=100)
        h2 = destination_histogram(other, 9, seed=200)
        # Pool cells with small expectation.
        keep = (h1 + h2) > 20
        a, b = h1[keep].astype(float), h2[keep].astype(float)
        na, nb = a.sum(), b.sum()
        pooled = (a + b) / (na + nb)
        chi2 = (((a - na * pooled) ** 2) / (na * pooled)
                + ((b - nb * pooled) ** 2) / (nb * pooled)).sum()
        dof = int(keep.sum()) - 1
        assert sps.chi2.sf(chi2, dof) > 1e-4

    def test_out_degree_distributions_match(self):
        g1 = RecursiveVectorGenerator(10, 16, seed=300)
        g2 = ReferenceGenerator(10, 16, seed=301)
        d1 = np.bincount(g1.edges()[:, 0], minlength=1024)
        d2 = np.bincount(g2.edges()[:, 0], minlength=1024)
        # Kolmogorov-Smirnov on the degree samples.
        stat = sps.ks_2samp(d1, d2)
        assert stat.pvalue > 1e-4
