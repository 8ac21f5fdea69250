"""Original Kronecker (SKG) — the AES (An Edge Scope) baseline (Section 2.2).

SKG visits *every cell* of the |V| x |V| probability matrix and flips a
Bernoulli coin with the cell's probability — O(|V|^2) time, O(1) space
(Table 1).  The paper could not even measure it ("extremely slow ...
timeout"); it is implemented here both as the complexity reference point
and to verify that AES produces the same graph family as WES/AVS.

The cell sweep is vectorized row by row: the row PMF factorizes over bits
(see :mod:`repro.core.probability`), so each row's |V| probabilities are
materialized with log|V| vector operations.  This keeps the Python-level
cost at O(|V| log|V|) while the work remains the faithful O(|V|^2) cell
sweep.  Usable only at small scales by design.
"""

from __future__ import annotations

import numpy as np

from ..core.process import PlainProcess
from ..errors import ConfigurationError
from .base import Complexity, ScopeBasedGenerator

__all__ = ["KroneckerAesGenerator"]

_TAG_CELLS = 1
_MAX_AES_SCALE = 14


class KroneckerAesGenerator(ScopeBasedGenerator):
    """Cell-by-cell stochastic Kronecker graph generation (AES)."""

    name = "Kronecker-AES"
    rmat_only = True
    complexity = Complexity("O(|V|^2 / P)", "O(1)", "AES")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.scale > _MAX_AES_SCALE:
            raise ConfigurationError(
                f"AES is O(|V|^2); refusing scale > {_MAX_AES_SCALE} "
                "(this is exactly the scalability wall the paper "
                "identifies)")

    def estimated_peak_bytes(self) -> int:
        # One row of probabilities plus the output edges of that row.
        return self.num_vertices * 8 * 2

    def generate(self) -> np.ndarray:
        """Sweep all cells; cell (u, v) yields an edge with probability
        ``|E| * K[u, v]`` (the expected-|E| calibration Graph500/SKG uses;
        clipped at 1)."""
        self.check_memory_budget()
        rng = self.rng(_TAG_CELLS)
        process = PlainProcess(self.seed_matrix, self.scale)
        report = self.report
        n = self.num_vertices
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        with report.time_phase("generate"):
            for u in range(n):
                bit_probs = process.bit_probabilities(
                    np.array([u], dtype=np.uint64))[0]
                pmf = np.array([1.0])
                for x in range(self.scale):
                    p = bit_probs[x]
                    pmf = np.concatenate([pmf * (1 - p), pmf * p])
                pmf *= float(process.row_probabilities(
                    np.array([u], dtype=np.uint64))[0])
                cell_p = np.minimum(pmf * self.num_edges, 1.0)
                hits = np.nonzero(rng.random(n) < cell_p)[0]
                if hits.size:
                    rows.append(np.full(hits.size, u, dtype=np.int64))
                    cols.append(hits.astype(np.int64))
        if rows:
            edges = np.column_stack([np.concatenate(rows),
                                     np.concatenate(cols)])
        else:
            edges = np.empty((0, 2), dtype=np.int64)
        report.realized_edges = edges.shape[0]
        report.peak_memory_bytes = self.estimated_peak_bytes()
        return edges
