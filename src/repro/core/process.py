"""Edge-process abstraction: plain SKG/RMAT vs NSKG behind one interface.

The AVS generator needs three quantities per source vertex ``u``:

1. the row probability ``P(u->)`` (Theorem 1's ``p``),
2. the RecVec row (Theorem 2's search structure),
3. the per-bit Bernoulli parameters (and the kernel's per-level matrices).

Both the noiseless process (one seed matrix, Lemmas 1-2) and the noisy NSKG
process (per-level matrices, Lemmas 7-8) provide them; generators are
written against this interface and are noise-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .noise import NoisySeedStack
from .recvec import build_recvec, build_recvecs
from .seed import SeedMatrix

__all__ = ["EdgeProcess", "PlainProcess", "NoisyProcess", "make_process"]


class EdgeProcess(ABC):
    """Everything the AVS generator needs to know about the stochastic
    process, independent of whether noise is applied."""

    #: number of recursion levels, ``log2(|V|)``
    levels: int

    @property
    def num_vertices(self) -> int:
        return 1 << self.levels

    @abstractmethod
    def row_probabilities(self, sources: np.ndarray) -> np.ndarray:
        """``P(u->)`` for each source (Lemma 1 / Lemma 7)."""

    @abstractmethod
    def zero_probabilities(self) -> np.ndarray:
        """``P(source bit = 0)`` per level, shape ``(levels,)``, level 0
        the most significant bit: the row sum of the level's seed over
        its mass (Lemma 1 / Lemma 7)."""

    @abstractmethod
    def build_recvecs(self, sources: np.ndarray) -> np.ndarray:
        """RecVec rows, shape ``(n, levels + 1)`` (Lemma 2 / Lemma 8)."""

    @abstractmethod
    def bit_probabilities(self, sources: np.ndarray) -> np.ndarray:
        """``P(v[x]=1 | u)`` per bit position, shape ``(n, levels)``."""

    def build_recvec(self, u: int) -> np.ndarray:
        """Single-source RecVec (convenience for the reference engine)."""
        return self.build_recvecs(np.array([u], dtype=np.uint64))[0]

    def digit_matrices(self) -> list[np.ndarray]:
        """The :class:`~repro.core.tables.ScopeSampler` input: per level,
        level 0 the most significant bit, row ``s`` is ``[1 - p, p]``
        for the :meth:`bit_probabilities` ``p`` of source bit ``s``; a
        level whose two rows agree states one."""
        one = self.bit_probabilities(np.array([0, self.num_vertices - 1]))
        out = []
        for p in one.T[::-1]:
            if np.array_equal(p[:1], p[1:]):
                p = p[:1]
            out.append(np.column_stack([1.0 - p, p]))
        return out


class PlainProcess(EdgeProcess):
    """The noiseless RMAT/SKG process driven by one 2x2 seed matrix."""

    def __init__(self, seed_matrix: SeedMatrix, levels: int) -> None:
        if not seed_matrix.is_rmat:
            raise ValueError(
                "PlainProcess requires a 2x2 seed; use FastKronecker for "
                "n x n seeds")
        self.seed_matrix = seed_matrix
        self.levels = levels
        a, b, c, d = seed_matrix.as_tuple()
        self._row_sums = np.array([a + b, c + d])
        self._bit_one = np.array([b / (a + b), d / (c + d)])

    def row_probabilities(self, sources: np.ndarray) -> np.ndarray:
        src = np.asarray(sources, dtype=np.uint64)
        ones = np.bitwise_count(src).astype(np.int64)
        ab, cd = self._row_sums
        return np.power(ab, self.levels - ones) * np.power(cd, ones)

    def zero_probabilities(self) -> np.ndarray:
        ab, cd = self._row_sums
        return np.full(self.levels, ab / (ab + cd))

    def build_recvecs(self, sources: np.ndarray) -> np.ndarray:
        return build_recvecs(self.seed_matrix, sources, self.levels)

    def build_recvec(self, u: int) -> np.ndarray:
        return build_recvec(self.seed_matrix, u, self.levels)

    def bit_probabilities(self, sources: np.ndarray) -> np.ndarray:
        src = np.asarray(sources, dtype=np.uint64)
        out = np.empty((src.size, self.levels), dtype=np.float64)
        for x in range(self.levels):
            bit_set = ((src >> np.uint64(x)) & np.uint64(1)).astype(bool)
            out[:, x] = np.where(bit_set, self._bit_one[1], self._bit_one[0])
        return out


class NoisyProcess(EdgeProcess):
    """The NSKG process driven by a per-level noisy seed stack."""

    def __init__(self, stack: NoisySeedStack) -> None:
        self.stack = stack
        self.levels = stack.levels

    def row_probabilities(self, sources: np.ndarray) -> np.ndarray:
        return self.stack.row_probabilities(sources)

    def zero_probabilities(self) -> np.ndarray:
        return self.stack.zero_probabilities()

    def build_recvecs(self, sources: np.ndarray) -> np.ndarray:
        return self.stack.build_recvecs(sources)

    def bit_probabilities(self, sources: np.ndarray) -> np.ndarray:
        return self.stack.bit_probabilities(sources)


def make_process(seed_matrix: SeedMatrix, levels: int, noise: float,
                 rng: np.random.Generator) -> EdgeProcess:
    """Build the right process for a noise parameter (0 => plain)."""
    if noise == 0.0:
        return PlainProcess(seed_matrix, levels)
    return NoisyProcess(NoisySeedStack.draw(seed_matrix, levels, noise, rng))
