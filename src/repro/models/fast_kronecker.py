"""FastKronecker — SNAP's RMAT-like Kronecker generator (Section 3.1).

FastKronecker generates each edge by recursive *region* selection with an
``n x n`` seed matrix (``log_n |V|`` recursion steps per edge) and keeps all
edges in memory for duplicate elimination — the same O(|E| log|V|) /
O(|E|) profile as RMAT (Table 1), and equal to RMAT when ``n = 2``.
"""

from __future__ import annotations

import numpy as np

from ..core.seed import SeedMatrix
from ..errors import ConfigurationError
from .base import Complexity, ScopeBasedGenerator
from .rmat import PathSampler, rmat_edge_batch

__all__ = ["fast_kronecker_edge_batch", "FastKroneckerGenerator"]

_TAG_EDGES = 1


def fast_kronecker_edge_batch(seed_matrix: SeedMatrix, depth: int,
                              count: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` edges by recursive n x n region selection: each of
    the ``depth`` steps picks a cell of the seed matrix and appends one
    base-n digit to the source and destination IDs.

    This *is* :func:`~repro.models.rmat.rmat_edge_batch` — the path
    sampler takes any seed order — under FastKronecker's name.
    """
    return rmat_edge_batch(seed_matrix, depth, count, rng)


class FastKroneckerGenerator(ScopeBasedGenerator):
    """The SNAP FastKronecker baseline (n x n recursive descent, WES)."""

    name = "FastKronecker"
    complexity = Complexity("O(|E| log|V|)", "O(|E|)", "WES")

    def __init__(self, scale: int, edge_factor: int = 16,
                 seed_matrix: SeedMatrix | None = None, **kwargs) -> None:
        super().__init__(scale, edge_factor, seed_matrix, **kwargs)
        order = self.seed_matrix.order
        # |V| = order ** depth must equal 2 ** scale.
        depth = self._depth_for(order)
        self.depth = depth

    def _depth_for(self, order: int) -> int:
        num_vertices = self.num_vertices
        depth = 0
        size = 1
        while size < num_vertices:
            size *= order
            depth += 1
        if size != num_vertices:
            raise ConfigurationError(
                f"|V| = 2^{self.scale} is not a power of the seed order "
                f"{order}; FastKronecker requires |V| = n^k")
        return depth

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        sampler = PathSampler(self.seed_matrix, self.depth)
        return self.unpack_edges(self._distinct_keys(
            lambda count: sampler.keys(count, rng)))
