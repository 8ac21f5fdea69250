"""Tests for the EdgeProcess abstraction and the RNG stream manager."""

import numpy as np
import pytest

from repro.core.noise import NoisySeedStack
from repro.core.process import (NoisyProcess, PlainProcess, make_process)
from repro.core.recvec import build_recvec
from repro.core.rng import derive_seed, spawn_streams, stream
from repro.core.seed import GRAPH500, SeedMatrix
from repro.errors import ConfigurationError


class TestPlainProcess:
    def test_recvec_matches_module_function(self):
        proc = PlainProcess(GRAPH500, 6)
        for u in (0, 7, 63):
            np.testing.assert_allclose(proc.build_recvec(u),
                                       build_recvec(GRAPH500, u, 6))

    def test_num_vertices(self):
        assert PlainProcess(GRAPH500, 10).num_vertices == 1024

    def test_nxn_digits(self):
        """An n x n seed: ``|V| = n^levels``, Lemma 1 over base-n digits,
        and each level's digit rows are the seed's rows normalised."""
        seed3 = SeedMatrix(np.arange(1.0, 10.0).reshape(3, 3) / 45.0)
        proc = PlainProcess(seed3, 4)
        assert proc.num_vertices == 81
        np.testing.assert_allclose(
            proc.row_probabilities(np.arange(81)),
            seed3.kronecker_power(4).sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(proc.split_probabilities(),
                                   [seed3.row_sums()] * 4)
        rows = seed3.entries / seed3.row_sums()[:, None]
        for matrix in proc.digit_matrices():
            np.testing.assert_allclose(matrix, rows)

    def test_bit_probabilities_shape(self):
        proc = PlainProcess(GRAPH500, 5)
        probs = proc.bit_probabilities(np.arange(8, dtype=np.uint64))
        assert probs.shape == (8, 5)
        assert np.all((0 <= probs) & (probs <= 1))

    def test_row_probabilities_normalized(self):
        proc = PlainProcess(GRAPH500, 8)
        total = proc.row_probabilities(
            np.arange(256, dtype=np.uint64)).sum()
        assert abs(float(total) - 1.0) < 1e-12


class TestMakeProcess:
    def test_zero_noise_is_plain(self):
        proc = make_process(GRAPH500, 6, 0.0, np.random.default_rng(0))
        assert isinstance(proc, PlainProcess)

    def test_rejects_nxn_noise(self):
        seed3 = SeedMatrix(np.full((3, 3), 1.0 / 9))
        with pytest.raises(ConfigurationError, match="2x2"):
            make_process(seed3, 4, 0.1, np.random.default_rng(0))

    def test_nonzero_noise_is_noisy(self):
        proc = make_process(GRAPH500, 6, 0.1, np.random.default_rng(0))
        assert isinstance(proc, NoisyProcess)

    def test_noisy_process_delegates(self):
        rng = np.random.default_rng(1)
        stack = NoisySeedStack.draw(GRAPH500, 5, 0.1, rng)
        proc = NoisyProcess(stack)
        us = np.arange(32, dtype=np.uint64)
        np.testing.assert_array_equal(proc.row_probabilities(us),
                                      stack.row_probabilities(us))
        np.testing.assert_array_equal(proc.build_recvecs(us),
                                      stack.build_recvecs(us))

    def test_noisy_process_reduces_to_plain_at_zero_mu(self):
        """A stack of identical (unperturbed) matrices equals the plain
        process."""
        stack = NoisySeedStack([GRAPH500] * 6)
        noisy = NoisyProcess(stack)
        plain = PlainProcess(GRAPH500, 6)
        us = np.arange(64, dtype=np.uint64)
        np.testing.assert_allclose(noisy.row_probabilities(us),
                                   plain.row_probabilities(us))
        np.testing.assert_allclose(noisy.build_recvecs(us),
                                   plain.build_recvecs(us))
        np.testing.assert_allclose(noisy.bit_probabilities(us),
                                   plain.bit_probabilities(us))


class TestRngStreams:
    def test_stream_deterministic(self):
        a = stream(42, 1, 2).random(5)
        b = stream(42, 1, 2).random(5)
        np.testing.assert_array_equal(a, b)

    def test_labels_separate_streams(self):
        a = stream(42, 1).random(5)
        b = stream(42, 2).random(5)
        assert not np.array_equal(a, b)

    def test_seed_separates_streams(self):
        a = stream(1, 7).random(5)
        b = stream(2, 7).random(5)
        assert not np.array_equal(a, b)

    def test_spawn_streams_independent(self):
        streams = spawn_streams(3, 4)
        assert len(streams) == 4
        draws = [s.random(3) for s in streams]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_derive_seed_deterministic_and_bounded(self):
        s1 = derive_seed(10, 5)
        s2 = derive_seed(10, 5)
        assert s1 == s2
        assert 0 <= s1 < 2**63
        assert derive_seed(10, 6) != s1
