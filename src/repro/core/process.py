"""Edge-process abstraction: plain SKG/RMAT vs NSKG behind one interface.

The AVS generator needs three quantities per source vertex ``u``:

1. the row probability ``P(u->)`` (Theorem 1's ``p``),
2. the RecVec row (Theorem 2's search structure, 2x2 seeds only),
3. the per-digit split and destination probabilities (the kernel's).

Both the noiseless process (one ``n x n`` seed matrix, Lemmas 1-2) and
the noisy NSKG process (per-level 2x2 matrices, Lemmas 7-8) provide
them; generators are written against this interface and are
noise-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError
from .noise import NoisySeedStack
from .recvec import build_recvec, build_recvecs
from .seed import SeedMatrix

__all__ = ["EdgeProcess", "PlainProcess", "NoisyProcess", "make_process"]


class EdgeProcess(ABC):
    """Everything the AVS generator needs to know about the stochastic
    process, independent of whether noise is applied."""

    #: number of recursion levels: ``|V| = order ** levels``
    levels: int
    #: the seed's side ``n``: a vertex id is ``levels`` base-``n`` digits
    order: int = 2

    @property
    def num_vertices(self) -> int:
        return self.order ** self.levels

    @abstractmethod
    def row_probabilities(self, sources: np.ndarray) -> np.ndarray:
        """``P(u->)`` for each source (Lemma 1 / Lemma 7)."""

    @abstractmethod
    def split_probabilities(self) -> np.ndarray:
        """``P(source digit = t)`` per level, shape ``(levels, order)``,
        level 0 the most significant digit: the row sums of the level's
        seed over its mass (Lemma 1 / Lemma 7)."""

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
    """The noiseless SKG process driven by one ``n x n`` seed matrix
    (RMAT at ``n = 2``)."""

    def __init__(self, seed_matrix: SeedMatrix, levels: int) -> None:
        self.seed_matrix = seed_matrix
        self.levels = levels
        self.order = seed_matrix.order
        self._row_sums = seed_matrix.row_sums()
        #: ``P(destination digit = t | source digit = s)``, every level.
        self._digit_rows = seed_matrix.entries / self._row_sums[:, None]

    def row_probabilities(self, sources: np.ndarray) -> np.ndarray:
        """Lemma 1: the product of the source digits' row sums."""
        if self.order == 2:
            src = np.asarray(sources, dtype=np.uint64)
            ones = np.bitwise_count(src).astype(np.int64)
            ab, cd = self._row_sums
            return np.power(ab, self.levels - ones) * np.power(cd, ones)
        digits = np.array(sources, dtype=np.int64)
        probs = np.ones(digits.size, dtype=np.float64)
        for _ in range(self.levels):
            probs *= self._row_sums[digits % self.order]
            digits //= self.order
        return probs

    def split_probabilities(self) -> np.ndarray:
        split = self._row_sums / self._row_sums.sum()
        return np.tile(split, (self.levels, 1))

    def digit_matrices(self) -> list[np.ndarray]:
        """At ``n = 2`` the binary rows; else the seed's rows normalised,
        every level (one row where they all agree)."""
        if self.order == 2:
            return super().digit_matrices()
        rows = self._digit_rows
        if (rows == rows[0]).all():
            rows = rows[:1]
        return [rows] * self.levels

    def build_recvecs(self, sources: np.ndarray) -> np.ndarray:
        return build_recvecs(self.seed_matrix, sources, self.levels)

    def build_recvec(self, u: int) -> np.ndarray:
        return build_recvec(self.seed_matrix, u, self.levels)

    def bit_probabilities(self, sources: np.ndarray) -> np.ndarray:
        if self.order != 2:
            raise ConfigurationError(
                "per-bit probabilities need a 2x2 seed")
        src = np.asarray(sources, dtype=np.uint64)
        out = np.empty((src.size, self.levels), dtype=np.float64)
        for x in range(self.levels):
            bit_set = ((src >> np.uint64(x)) & np.uint64(1)).astype(bool)
            out[:, x] = np.where(bit_set, self._digit_rows[1, 1],
                                 self._digit_rows[0, 1])
        return out


class NoisyProcess(EdgeProcess):
    """The NSKG process driven by a per-level noisy seed stack."""

    def __init__(self, stack: NoisySeedStack) -> None:
        self.stack = stack
        self.levels = stack.levels

    def row_probabilities(self, sources: np.ndarray) -> np.ndarray:
        return self.stack.row_probabilities(sources)

    def split_probabilities(self) -> np.ndarray:
        return self.stack.split_probabilities()

    def build_recvecs(self, sources: np.ndarray) -> np.ndarray:
        return self.stack.build_recvecs(sources)

    def bit_probabilities(self, sources: np.ndarray) -> np.ndarray:
        return self.stack.bit_probabilities(sources)


def make_process(seed_matrix: SeedMatrix, levels: int, noise: float,
                 rng: np.random.Generator) -> EdgeProcess:
    """Build the right process for a noise parameter (0 => plain)."""
    if noise == 0.0:
        return PlainProcess(seed_matrix, levels)
    if not seed_matrix.is_rmat:
        n = seed_matrix.order
        raise ConfigurationError(
            f"noise is defined for 2x2 seeds only (Appendix C); got a "
            f"{n}x{n} seed")
    return NoisyProcess(NoisySeedStack.draw(seed_matrix, levels, noise, rng))
