"""Erdős–Rényi random graphs (related work, Section 8).

G(n, M)-style: |E| distinct uniformly random directed edges.  The paper
notes ER is exactly the RMAT model with the uniform seed
``alpha = beta = gamma = delta = 0.25``; a test verifies the equivalence.
"""

from __future__ import annotations

import numpy as np

from .base import Complexity, ScopeBasedGenerator

__all__ = ["ErdosRenyiGenerator"]

_TAG_EDGES = 1


class ErdosRenyiGenerator(ScopeBasedGenerator):
    """Uniform random directed graph with exactly |E| distinct edges."""

    name = "Erdos-Renyi"
    complexity = Complexity("O(|E|)", "O(|E|)", "WES")

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        cells = np.int64(self.num_vertices) ** 2
        return self.unpack_edges(self._distinct_keys(
            lambda count: rng.integers(0, cells, size=count,
                                       dtype=np.int64)))
