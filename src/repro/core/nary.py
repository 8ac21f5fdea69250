"""AVS generation for n x n seed matrices (general SKG).

The paper implements the recursive vector model for 2 x 2 seeds (RMAT) and
notes that SKG generalizes RMAT to ``n x n`` probability parameters.  This
module runs that full generality on the AVS kernel: vertex IDs become
base-``n`` digit strings of length ``depth`` (``|V| = n**depth``), Lemma 1
becomes a product of per-digit row sums, and the destination's digit at
position ``d`` is drawn from ``K[u_d, :] / rowsum(K[u_d, :])`` — a chunk of
digits at a time by :class:`repro.core.tables.ScopeSampler`, in the runs
the binary generator draws, deduplicates and tops up (``_run_cuts``,
``_draw_run``).  For ``n = 2`` this is the main generator's process
(verified by tests).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ConfigurationError, GenerationError
from .generator import (AdjacencyBlock, _digits_pmf, _draw_run, _ppswor,
                        _run_cuts)
from .rng import stream
from .scope import sample_scope_sizes
from .seed import SeedMatrix
from .tables import ScopeSampler

__all__ = ["NAryRecursiveVectorGenerator"]

_TAG_DEGREE = 301
_TAG_EDGE = 302


class NAryRecursiveVectorGenerator:
    """Scope-per-source-vertex generation under an ``n x n`` seed.

    Parameters
    ----------
    seed_matrix:
        ``n x n`` seed (n >= 2).
    depth:
        Number of recursion levels; ``|V| = n ** depth``.
    num_edges:
        Target edge count (defaults to ``16 * |V|``).
    dedup:
        Per-scope duplicate elimination (Algorithm 2 semantics).
    block_size:
        Sources per grid block.  A key ``row << shift | dest``, ``shift``
        the bits of ``|V| - 1``, must fit an int64:
        ``(|V| - 1).bit_length() + (block_size - 1).bit_length() <= 63``.
    """

    def __init__(self, seed_matrix: SeedMatrix, depth: int, *,
                 num_edges: int | None = None, dedup: bool = True,
                 seed: int = 0, block_size: int = 4096) -> None:
        if depth < 1:
            raise ConfigurationError("depth must be >= 1")
        self.seed_matrix = seed_matrix
        self.order = seed_matrix.order
        self.depth = depth
        self.num_vertices = self.order ** depth
        self._shift = (self.num_vertices - 1).bit_length()
        if self._shift + (block_size - 1).bit_length() > 63:
            raise ConfigurationError(
                f"|V| = {self.order}^{depth} leaves {63 - self._shift} "
                f"bits of an int64 key for the row ids of block_size "
                f"{block_size}")
        self.num_edges = (num_edges if num_edges is not None
                          else 16 * self.num_vertices)
        if self.num_edges < 1:
            raise ConfigurationError("num_edges must be positive")
        self.dedup = dedup
        self.seed = seed
        self.block_size = block_size
        entries = seed_matrix.entries
        self._row_sums = entries.sum(axis=1)            # (n,)
        if np.any(self._row_sums <= 0):
            raise ConfigurationError(
                "every seed row needs positive mass for AVS scoping")
        #: ``P(dest digit = t | source digit = s)``, the same every level.
        self._digit_rows = entries / self._row_sums[:, None]
        self._sampler: ScopeSampler | None = None   # built by a first draw

    # ------------------------------------------------------------------

    def row_probabilities(self, sources: np.ndarray) -> np.ndarray:
        """Generalized Lemma 1: ``P(u->) = prod_d rowsum(u_d)``."""
        v = np.array(sources, dtype=np.int64)
        probs = np.ones(v.size, dtype=np.float64)
        for _ in range(self.depth):
            probs *= self._row_sums[v % self.order]
            v //= self.order
        return probs

    def block_degrees(self, block_index: int) -> np.ndarray:
        sources = self._block_sources(block_index)
        probs = self.row_probabilities(sources)
        rng = stream(self.seed, _TAG_DEGREE, block_index)
        max_size = self.num_vertices if self.dedup else None
        return sample_scope_sizes(probs, self.num_edges, rng,
                                  max_size=max_size)

    def degrees(self) -> np.ndarray:
        return np.concatenate([
            self.block_degrees(b) for b in range(self._num_blocks())])

    # ------------------------------------------------------------------

    def _sample_scope_exact(self, u: int, size: int,
                            rng: np.random.Generator) -> np.ndarray:
        """PPSWOR over ``u``'s row PMF, for scopes the top-up left short."""
        if self.num_vertices > 1 << 26:
            raise GenerationError(
                "saturated scope too large to materialize")
        digits = u // self.order ** np.arange(self.depth) % self.order
        return _ppswor(_digits_pmf(self._digit_rows[digits]), size, rng)

    def _block_runs(self, block_index: int) -> Iterator[AdjacencyBlock]:
        """The runs of grid block ``block_index`` (``_run_cuts``), run
        ``k`` drawn from ``stream(seed, 302, block, k)``, one at a time."""
        sources = self._block_sources(block_index)
        degrees = self.block_degrees(block_index)
        if self._sampler is None:
            self._sampler = ScopeSampler([self._digit_rows] * self.depth)
        sampler, shift = self._sampler, self._shift
        cuts = _run_cuts(degrees)
        for k, (first, stop) in enumerate(zip(cuts, cuts[1:])):
            rng = stream(self.seed, _TAG_EDGE, block_index, k)
            run_sources = sources[first:stop]
            run, _ = _draw_run(
                run_sources, degrees[first:stop], shift, self.dedup,
                lambda rows, counts: sampler.keys(run_sources[rows], counts,
                                                  shift, rng),
                lambda row, size: self._sample_scope_exact(
                    int(run_sources[row]), size, rng))
            yield run
            del run

    def _num_blocks(self) -> int:
        return (self.num_vertices + self.block_size - 1) // self.block_size

    def _block_sources(self, block_index: int) -> np.ndarray:
        lo = block_index * self.block_size
        hi = min(lo + self.block_size, self.num_vertices)
        if lo >= self.num_vertices:
            raise ValueError(f"block {block_index} out of range")
        return np.arange(lo, hi, dtype=np.int64)

    def iter_blocks(self) -> Iterator[AdjacencyBlock]:
        """Every run of every grid block in source order, one at a time."""
        for block_index in range(self._num_blocks()):
            yield from self._block_runs(block_index)

    def generate_block(self, block_index: int) -> np.ndarray:
        """All edges of one block as an ``(m, 2)`` array."""
        return np.concatenate([run.edge_array()
                               for run in self._block_runs(block_index)])

    def edges(self) -> np.ndarray:
        return np.concatenate([run.edge_array()
                               for run in self.iter_blocks()])
