"""Unit tests for repro.core.noise (NSKG, Appendix C)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.noise import NoisySeedStack, max_noise, noisy_seed_matrices
from repro.core.seed import GRAPH500, SeedMatrix
from repro.errors import ConfigurationError


def rng(seed=0):
    return np.random.default_rng(seed)


class TestMaxNoise:
    def test_graph500(self):
        # min((0.57 + 0.05)/2, 0.19) = min(0.31, 0.19) = 0.19
        assert math.isclose(max_noise(GRAPH500), 0.19)

    def test_beta_binding(self):
        k = SeedMatrix.rmat(0.6, 0.05, 0.05, 0.3)
        assert math.isclose(max_noise(k), 0.05)


class TestNoisySeedMatrices:
    def test_count(self):
        mats = noisy_seed_matrices(GRAPH500, 20, 0.1, rng())
        assert len(mats) == 20

    def test_zero_noise_reproduces_base(self):
        mats = noisy_seed_matrices(GRAPH500, 5, 0.0, rng())
        for m in mats:
            assert np.allclose(m.entries, GRAPH500.entries)

    def test_each_level_sums_to_one(self):
        """Definition 3's perturbation preserves total mass exactly."""
        mats = noisy_seed_matrices(GRAPH500, 30, 0.19, rng())
        for m in mats:
            assert math.isclose(float(m.entries.sum()), 1.0, abs_tol=1e-9)

    def test_levels_differ(self):
        mats = noisy_seed_matrices(GRAPH500, 10, 0.1, rng())
        betas = {m.beta for m in mats}
        assert len(betas) > 1

    def test_entries_nonnegative_at_max_noise(self):
        mats = noisy_seed_matrices(GRAPH500, 200, max_noise(GRAPH500),
                                   rng())
        for m in mats:
            assert np.all(m.entries >= -1e-12)

    def test_rejects_excess_noise(self):
        with pytest.raises(ConfigurationError):
            noisy_seed_matrices(GRAPH500, 10, 0.5, rng())

    def test_rejects_negative_noise(self):
        with pytest.raises(ConfigurationError):
            noisy_seed_matrices(GRAPH500, 10, -0.1, rng())

    def test_deterministic_given_rng(self):
        m1 = noisy_seed_matrices(GRAPH500, 8, 0.1, rng(7))
        m2 = noisy_seed_matrices(GRAPH500, 8, 0.1, rng(7))
        for a, b in zip(m1, m2):
            assert a == b

    @settings(max_examples=20)
    @given(st.floats(min_value=0.0, max_value=0.19))
    def test_definition3_structure(self, noise):
        """alpha and delta shrink by the same factor; beta and gamma are
        shifted by the same mu."""
        mats = noisy_seed_matrices(GRAPH500, 3, noise, rng(11))
        a0, b0, c0, d0 = GRAPH500.as_tuple()
        for m in mats:
            a, b, c, d = m.as_tuple()
            mu = b - b0
            assert math.isclose(c - c0, mu, abs_tol=1e-12)
            shrink = 1 - 2 * mu / (a0 + d0)
            assert math.isclose(a, a0 * shrink, rel_tol=1e-12)
            assert math.isclose(d, d0 * shrink, rel_tol=1e-12)


class TestNoisySeedStack:
    def make(self, levels=6, noise=0.1, seed=3):
        return NoisySeedStack.draw(GRAPH500, levels, noise, rng(seed))

    def test_row_probabilities_match_kronecker_product(self):
        """Lemma 7 equals the explicit K_0 ⊗ ... ⊗ K_{L-1} row sums."""
        stack = self.make(levels=4)
        full = stack.matrices[0].entries
        for m in stack.matrices[1:]:
            full = np.kron(full, m.entries)
        rows = full.sum(axis=1)
        got = stack.row_probabilities(np.arange(16, dtype=np.uint64))
        assert np.allclose(got, rows)

    def test_recvec_matches_kronecker_cdf(self):
        """Lemma 8 equals CDF values at powers of two from the explicit
        noisy Kronecker matrix."""
        stack = self.make(levels=4)
        full = stack.matrices[0].entries
        for m in stack.matrices[1:]:
            full = np.kron(full, m.entries)
        recvecs = stack.build_recvecs(np.arange(16, dtype=np.uint64))
        for u in range(16):
            cdf = np.concatenate([[0.0], np.cumsum(full[u])])
            for x in range(5):
                assert math.isclose(float(recvecs[u, x]),
                                    float(cdf[1 << x]), rel_tol=1e-10)

    def test_bit_probabilities_match_matrix(self):
        stack = self.make(levels=3)
        probs = stack.bit_probabilities(np.arange(8, dtype=np.uint64))
        for u in range(8):
            for x in range(3):
                level = 3 - 1 - x
                s = (u >> x) & 1
                m = stack.matrices[level].entries
                expected = m[s, 1] / (m[s, 0] + m[s, 1])
                assert math.isclose(float(probs[u, x]), expected)

    def test_total_mass_one(self):
        stack = self.make(levels=8)
        total = stack.row_probabilities(
            np.arange(256, dtype=np.uint64)).sum()
        assert math.isclose(float(total), 1.0, abs_tol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            NoisySeedStack([])

    def test_recvec_monotone(self):
        stack = self.make(levels=10)
        recvecs = stack.build_recvecs(np.array([0, 77, 1023],
                                               dtype=np.uint64))
        assert np.all(np.diff(recvecs, axis=1) >= 0)


class TestNoisyRecVecInversion:
    """Lemma 8 + Algorithm 5 end-to-end: under noise, determine_edge on
    the noisy RecVec inverts the noisy Kronecker CDF exactly."""

    def test_determine_edge_inverts_noisy_cdf(self):
        from repro.core.recvec import determine_edge
        stack = NoisySeedStack.draw(GRAPH500, 5, 0.15, rng(13))
        full = stack.matrices[0].entries
        for m in stack.matrices[1:]:
            full = np.kron(full, m.entries)
        rng_x = rng(14)
        for u in (0, 9, 31):
            recvec = stack.build_recvecs(
                np.array([u], dtype=np.uint64))[0]
            cdf = np.concatenate([[0.0], np.cumsum(full[u])])
            for x in rng_x.uniform(0, recvec[-1], size=300):
                v = determine_edge(float(x), recvec)
                assert cdf[v] <= x < cdf[v + 1] or (
                    x >= cdf[-2] and v == full.shape[1] - 1)

    def test_vectorized_matches_scalar_under_noise(self):
        from repro.core.recvec import determine_edge, determine_edges
        stack = NoisySeedStack.draw(GRAPH500, 6, 0.1, rng(15))
        us = np.array([0, 5, 17, 63], dtype=np.uint64)
        rng_x = rng(16)
        for recvec in stack.build_recvecs(us):
            xs = rng_x.random(100) * recvec[-1]
            vec = determine_edges(xs, recvec)
            assert vec.tolist() == [determine_edge(float(x), recvec)
                                    for x in xs]

    def test_noisy_sigma_differs_per_level(self):
        """Under noise, Algorithm 5's in-place sigma (Lemma 8 RecVec
        ratios) varies across k — unlike the noiseless case where it is
        one of two constants (Lemma 3)."""
        from repro.core.recvec import sigma_from_recvec
        stack = NoisySeedStack.draw(GRAPH500, 8, 0.15, rng(17))
        recvec = stack.build_recvecs(np.array([0], dtype=np.uint64))[0]
        sigmas = {round(float(sigma_from_recvec(recvec, k)), 9)
                  for k in range(8)}
        assert len(sigmas) > 2
