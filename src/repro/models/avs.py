"""TrillionG as a scope-based model (AVS) — adapter over the core engine.

Wraps :class:`repro.core.generator.RecursiveVectorGenerator` in the
:class:`~repro.models.base.ScopeBasedGenerator` interface so it can be
compared head-to-head with the WES/AES baselines in the benchmark harness.
``TrillionGSeqGenerator`` is the single-threaded variant the paper calls
TrillionG/seq (Figure 11(a)).
"""

from __future__ import annotations

import numpy as np

from ..core.generator import Recipe
from .base import Complexity, ScopeBasedGenerator

__all__ = ["TrillionGSeqGenerator"]


class TrillionGSeqGenerator(ScopeBasedGenerator):
    """Single-threaded TrillionG (the recursive vector model, AVS)."""

    name = "TrillionG/seq"
    complexity = Complexity("O(|E| log|V| / P)", "O(d_max)", "AVS")

    def __init__(self, *args, noise: float = Recipe.noise,
                 block_size: int = Recipe.block_size, **kwargs) -> None:
        self._build(args, kwargs, noise=noise, block_size=block_size)

    def _build(self, args: tuple, kwargs: dict, **settings) -> None:
        """The base's settings, and ``inner`` from their one recipe."""
        super().__init__(*args, **kwargs)
        self.inner = Recipe(self.scale, seed_matrix=self.seed_matrix,
                            num_edges=self.num_edges, seed=self.seed,
                            **settings).build()

    def _vertex_count(self) -> int:
        """``n^scale`` for an ``n x n`` seed: ``scale`` is the recursion
        depth (:attr:`Recipe.num_vertices`)."""
        return Recipe(self.scale, seed_matrix=self.seed_matrix).num_vertices

    def estimated_peak_bytes(self) -> int:
        """AVS holds one scope (<= d_max destinations) plus RecVec; the
        bitwise engine holds one block of scopes.  Estimated as the block's
        expected edge mass (upper-bounded by the hub block)."""
        expected_block_edges = (self.num_edges / self.num_vertices
                                * self.inner.block_size)
        # The hub block can be ~|E| * P(0->)-heavy; bound with a 4x margin.
        return int(max(expected_block_edges * 4, 1024) * 8)

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        report = self.report
        with report.time_phase("generate"):
            edges = self.inner.edges()
        report.realized_edges = edges.shape[0]
        report.duplicates_discarded = self.inner.stats.duplicates_discarded
        report.peak_memory_bytes = self.estimated_peak_bytes()
        return edges
