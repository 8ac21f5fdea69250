"""NSKG random noise — Appendix C (Definition 3, Lemmas 7-8).

Plain SKG raises one seed matrix to a Kronecker power, which produces the
oscillating log-log degree plot of Figure 9(a).  NSKG instead takes the
Kronecker product of ``log|V|`` *different* matrices ``K_0 ⊗ ... ⊗ K_{L-1}``
where each ``K_i`` perturbs the base seed by a level-specific uniform noise
``mu_i ~ U(-N, N)``::

    K_i = [ alpha(1 - 2 mu_i/(alpha+delta)),  beta + mu_i
            gamma + mu_i,                     delta(1 - 2 mu_i/(alpha+delta)) ]

The perturbation preserves each matrix's total mass, so the process remains
a probability model.  ``N`` must satisfy ``N <= min((alpha+delta)/2, beta)``
so no entry goes negative.

Convention: ``K_0`` is the coarsest recursion level, i.e. it governs the
most-significant bit of vertex IDs (matching ``K = K_0 ⊗ K_1 ⊗ ...``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .seed import SeedMatrix

__all__ = ["max_noise", "noisy_seed_matrices", "NoisySeedStack"]


def max_noise(seed: SeedMatrix) -> float:
    """The largest admissible noise parameter.

    Definition 3 prints ``min((alpha+delta)/2, beta)``, which keeps every
    perturbed entry non-negative only when ``beta == gamma`` (true for the
    Graph500 seed the paper uses).  For asymmetric seeds ``gamma + mu``
    can go negative under the printed bound, so ``gamma`` is included
    here: ``min((alpha+delta)/2, beta, gamma)``.
    """
    a, b, c, d = seed.as_tuple()
    return min((a + d) / 2.0, b, c)


def noisy_seed_matrices(seed: SeedMatrix, levels: int, noise: float,
                        rng: np.random.Generator) -> list[SeedMatrix]:
    """Draw the per-level noisy matrices ``K_0 .. K_{levels-1}`` (Def. 3)."""
    if noise < 0:
        raise ConfigurationError("noise parameter must be non-negative")
    limit = max_noise(seed)
    if noise > limit + 1e-12:
        raise ConfigurationError(
            f"noise {noise} exceeds the admissible bound "
            f"min((alpha+delta)/2, beta) = {limit:.6g}")
    a, b, c, d = seed.as_tuple()
    mus = rng.uniform(-noise, noise, size=levels)
    matrices = []
    for mu in mus:
        shrink = 1.0 - 2.0 * mu / (a + d)
        matrices.append(SeedMatrix.rmat(a * shrink, b + mu,
                                        c + mu, d * shrink))
    return matrices


class NoisySeedStack:
    """The per-level matrices of one NSKG instance, with the closed forms
    of Lemmas 7-8 evaluated directly on the stack.

    The stack's randomness (the ``mu_i`` draws) is part of the *model*, not
    of edge generation: all workers generating the same graph must share the
    same stack, so it is drawn once from the graph-level seed and shipped to
    workers.
    """

    def __init__(self, matrices: list[SeedMatrix]) -> None:
        if not matrices:
            raise ConfigurationError("noisy seed stack cannot be empty")
        if any(not m.is_rmat for m in matrices):
            raise ConfigurationError("NSKG requires 2x2 seed matrices")
        self.matrices = list(matrices)
        self.levels = len(matrices)
        # Per-level row sums and keep-low/one-probability tables, indexed by
        # [level][source_bit].  Level 0 = most significant bit.
        self._row_sums = np.array(
            [m.row_sums() for m in matrices])            # (L, 2)
        entries = np.array([m.entries for m in matrices])  # (L, 2, 2)
        self._keep_low = entries[:, :, 0] / self._row_sums   # K[s,0]/rowsum
        self._bit_one = entries[:, :, 1] / self._row_sums    # K[s,1]/rowsum

    @classmethod
    def draw(cls, seed: SeedMatrix, levels: int, noise: float,
             rng: np.random.Generator) -> "NoisySeedStack":
        """Draw a fresh stack per Definition 3."""
        return cls(noisy_seed_matrices(seed, levels, noise, rng))

    def _level_of_bit(self, bit: int) -> int:
        """Kronecker level governing bit position ``bit`` (LSB = 0)."""
        return self.levels - 1 - bit

    # -- Lemma 7 -----------------------------------------------------------

    def row_probabilities(self, sources: np.ndarray) -> np.ndarray:
        """``P'(u->) = prod_i (K_i[u_i,0] + K_i[u_i,1])`` over levels
        (equivalent to Lemma 7's modifier-product form)."""
        src = np.asarray(sources, dtype=np.uint64)
        out = np.ones(src.shape, dtype=np.float64)
        for bit in range(self.levels):
            level = self._level_of_bit(bit)
            bit_set = ((src >> np.uint64(bit)) & np.uint64(1)).astype(bool)
            out *= np.where(bit_set, self._row_sums[level, 1],
                            self._row_sums[level, 0])
        return out

    # -- Lemma 8 -----------------------------------------------------------

    def build_recvecs(self, sources: np.ndarray) -> np.ndarray:
        """Noisy RecVec rows (Lemma 8) for a batch of sources.

        Same recurrence as the noiseless Lemma 2, but the keep-low factor at
        bit ``x`` comes from the level-specific matrix ``K_{L-1-x}``.
        """
        src = np.asarray(sources, dtype=np.uint64)
        out = np.empty((src.size, self.levels + 1), dtype=np.float64)
        out[:, self.levels] = self.row_probabilities(src)
        for x in range(self.levels - 1, -1, -1):
            level = self._level_of_bit(x)
            bit_set = ((src >> np.uint64(x)) & np.uint64(1)).astype(bool)
            factor = np.where(bit_set, self._keep_low[level, 1],
                              self._keep_low[level, 0])
            out[:, x] = out[:, x + 1] * factor
        return out

    def bit_probabilities(self, sources: np.ndarray) -> np.ndarray:
        """``P(v[x] = 1 | u)`` per bit position, shape ``(n, levels)``
        with column ``x`` = bit position ``x`` (LSB = 0); the bitwise
        engine's Bernoulli parameters under noise."""
        src = np.asarray(sources, dtype=np.uint64)
        out = np.empty((src.size, self.levels), dtype=np.float64)
        for x in range(self.levels):
            level = self._level_of_bit(x)
            bit_set = ((src >> np.uint64(x)) & np.uint64(1)).astype(bool)
            out[:, x] = np.where(bit_set, self._bit_one[level, 1],
                                 self._bit_one[level, 0])
        return out
