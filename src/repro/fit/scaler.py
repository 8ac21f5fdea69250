"""GSCALER-style graph scaling on top of the recursive vector model.

GSCALER (cited as the representative sampling-based method, Section 8)
produces a large graph *similar to a given small graph*.  TrillionG's
stochastic machinery enables a simple, scalable version of the same idea:

1. fit a seed matrix to the input graph (:mod:`repro.fit.moments`) —
   this captures its in-/out-degree skews and their correlation;
2. re-generate at any target scale with the recursive vector model,
   keeping the observed edge density (``|E|/|V|``).

The scaled graph matches the original in mean degree, Zipf slopes of both
degree marginals, and the source/destination bit correlation — the
"in-/out-degree correlation of nodes and edges" GSCALER is built around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.generator import Recipe, RecursiveVectorGenerator
from ..errors import ConfigurationError
from .moments import SeedFit, fit_seed_matrix

__all__ = ["GraphScaler"]


@dataclass
class GraphScaler:
    """Fit once, then generate similar graphs at arbitrary scales.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import RecursiveVectorGenerator
    >>> from repro.fit import GraphScaler
    >>> small = RecursiveVectorGenerator(10, 8, seed=1).edges()
    >>> scaler = GraphScaler.fit(small, num_vertices=1024)
    >>> big = scaler.scale_to(scale=14, seed=2)   # 16x the vertices
    """

    fit_result: SeedFit

    @classmethod
    def fit(cls, edges: np.ndarray, num_vertices: int) -> "GraphScaler":
        """Fit the scaler to an observed graph."""
        return cls(fit_seed_matrix(edges, num_vertices))

    @property
    def seed_matrix(self):
        return self.fit_result.seed_matrix

    def generator(self, scale: int, seed: int = 0, *,
                  noise: float = 0.0) -> RecursiveVectorGenerator:
        """Build a generator for the scaled graph (``|V| = 2**scale``),
        preserving the fitted seed and the observed edge density."""
        if scale < 1:
            raise ConfigurationError("scale must be >= 1")
        num_edges = max(int(round(self.fit_result.edge_factor
                                  * (1 << scale))), 1)
        return Recipe(scale, seed_matrix=self.seed_matrix,
                      num_edges=num_edges, noise=noise, seed=seed).build()

    def scale_to(self, scale: int, seed: int = 0, **kwargs) -> np.ndarray:
        """Generate the scaled graph's edges."""
        return self.generator(scale, seed, **kwargs).edges()
