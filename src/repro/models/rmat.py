"""RMAT — the WES (Whole Edges Scope) baseline (Section 2.1).

RMAT generates each edge by ``log2(|V|)`` recursive quadrant selections over
the whole adjacency matrix and keeps every generated edge in memory to
eliminate duplicates, giving O(|E| log|V|) time and O(|E|) space (Table 1).
That is the model and its published cost; the draw itself is done by
:class:`PathSampler`, which tables whole quadrant *paths* and so takes one
lookup per 7 levels — the same distribution, edge for edge.

Two variants are provided, matching Figure 11(a)'s bars:

- :class:`RmatMemGenerator` — in-memory duplicate elimination (the default
  RMAT); subject to the memory budget (O.O.M past the budget).
- :class:`RmatDiskGenerator` — duplicates eliminated by external sort on
  disk, trading memory for I/O (the paper measures it ~18.5x slower than
  TrillionG/seq).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..core import tables
from ..core.seed import SeedMatrix
from ..errors import ConfigurationError
from ..util.external_sort import unique_sorted
from .base import (BATCH_EDGES, Complexity, ScopeBasedGenerator,
                   StreamingDedupMixin)

__all__ = ["PathSampler", "map_task", "rmat_edge_batch", "RmatMemGenerator",
           "RmatDiskGenerator"]

_TAG_EDGES = 1

#: Vertex-id bits one table covers: for a 2 x 2 seed a chunk is 7
#: recursion levels and a table 4^7 = 16 384 quadrant paths.  Measured at
#: scale 19 over 2^18-edge batches: 6 bits (chunks 6/6/6/1) 35 ns/edge
#: and 4 ms of tables, 7 bits (7/7/5) 27 ns/edge and 9 ms, 8 bits (8/8/3)
#: 29 ns/edge and 36 ms; one uniform and one ``searchsorted`` per level
#: took 365 ns/edge.
_CHUNK_BITS = 7


class PathSampler:
    """Packed edge keys ``u * |V| + v`` of the ``levels``-fold recursive
    cell selection over an ``n x n`` seed (Figure 1(b); RMAT is n = 2),
    drawn a chunk of levels at a time instead of a level at a time.

    The ``levels`` steps are cut into chunks of ``_CHUNK_BITS // log2 n``
    levels (the last one shorter) that chain over *all* levels.  Each
    chunk has one alias table over its ``(n * n) ** width`` cell paths —
    the Kronecker power of the seed, so chunks are independent exactly as
    levels are — padded with impossible slots to a power of two, whose
    entries already hold the path's contribution to the key (the
    Hübschle-Schneider & Sanders linear-work R-MAT construction).

    Determinism key: :meth:`keys` consumes the uniforms of one
    ``rng.random(count)`` per chunk, chunks in order from the most
    significant levels down; edge ``i`` takes element ``i`` of each.
    It draws them a slice at a time by the slice rule, through the
    draw loop :class:`~repro.core.tables.ScopeSampler` uses too, so
    neither the slice nor the batch size changes a key.
    The uniform's high bits pick the slot (``r * slots`` is exact, the
    slot count being a power of two) and the remaining fraction decides
    between the slot's own path and its alias.
    """

    def __init__(self, seed_matrix: SeedMatrix, levels: int) -> None:
        order = seed_matrix.order
        flat = seed_matrix.entries.ravel()
        cell_u, cell_v = np.divmod(np.arange(flat.size, dtype=np.int64),
                                   order)
        width = max(1, int(_CHUNK_BITS / math.log2(order)))
        #: Per chunk: slot count, alias thresholds, and the key
        #: contributions interleaved as ``[alias's, own]`` per slot.
        self._tables: list[tuple[float, np.ndarray, np.ndarray]] = []
        below = levels
        while below > 0:
            depth = min(width, below)
            below -= depth
            pmf = np.ones(1, dtype=np.float64)
            u = v = np.zeros(1, dtype=np.int64)
            for _ in range(depth):
                pmf = np.multiply.outer(pmf, flat).ravel()
                u = np.add.outer(u * order, cell_u).ravel()
                v = np.add.outer(v * order, cell_v).ravel()
            threshold, contrib = tables._padded_tables(
                pmf[None], (u * order ** levels + v) * order ** below)
            self._tables.append((float(threshold.size), threshold, contrib))

    def keys(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` packed keys (repeats possible): the one-batch
        case of :meth:`batches`."""
        return next(self.batches(count, rng, max(count, 1)),
                    np.zeros(0, dtype=np.int64))

    def batches(self, count: int, rng: np.random.Generator, batch: int
                ) -> Iterator[np.ndarray]:
        """The keys of one ``keys(count, rng)`` call, ``batch`` at a time.

        Each batch's key array is filled ``_SLICE_KEYS`` keys at a time
        by :func:`repro.core.tables._draw_slice`, every (slice, chunk)
        draw positioned by the slice rule
        (:func:`repro.core.tables._slices`), so the batch and slice sizes
        change no key.  The key array is the only batch-sized allocation,
        and this generator lets go of it once it is yielded."""
        size = min(count, batch, tables._SLICE_KEYS)
        u = np.empty(size, dtype=np.float64)
        slot = np.empty(size, dtype=np.int64)
        for first, stop, seek in tables._slices(count, tables._SLICE_KEYS,
                                                rng, batch):
            at = first % batch
            if not at:
                key = np.zeros(min(batch, count - first), dtype=np.int64)
            part = key[at:at + stop - first]
            tables._draw_slice(part, self._tables, seek, rng,
                               u[:part.size], slot[:part.size])
            if at + part.size == key.size:
                yield key
                del key, part


def map_task(sampler: PathSampler, rng: np.random.Generator, count: int,
             batch_edges: int = BATCH_EDGES) -> Iterator[np.ndarray]:
    """The WES map step: the ``count`` keys of one ``sampler.keys(count,
    rng)`` call, ``batch_edges`` at a time, each batch sorted and
    compacted in place to its distinct keys.  The batch size bounds
    memory and changes no key."""
    for keys in sampler.batches(count, rng, batch_edges):
        keys.sort()
        yield unique_sorted(keys)
        del keys


def rmat_edge_batch(seed_matrix: SeedMatrix, levels: int, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` edges by recursive quadrant selection (may repeat).

    The ``(count, 2)`` view of :meth:`PathSampler.keys`.  Convenience
    path: it builds a sampler (a few milliseconds of tables) on every
    call, so a loop should build one :class:`PathSampler` and draw keys.
    """
    keys = PathSampler(seed_matrix, levels).keys(count, rng)
    return np.column_stack(np.divmod(keys, seed_matrix.order ** levels))


class RmatMemGenerator(ScopeBasedGenerator):
    """RMAT with in-memory duplicate elimination (WES)."""

    name = "RMAT-mem"
    rmat_only = True
    complexity = Complexity("O(|E| log|V|)", "O(|E|)", "WES")

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        sampler = PathSampler(self.seed_matrix, self.scale)
        return self.unpack_edges(self._distinct_keys(
            lambda count: sampler.keys(count, rng)))


class RmatDiskGenerator(StreamingDedupMixin):
    """RMAT with external-sort duplicate elimination (WES, disk-based).

    One map task draws ``|E| * (1 + epsilon)`` candidate edges; its
    batches spill as sorted duplicate-free runs and one partitioned pass
    streams their union (:class:`~repro.models.base.StreamingDedupMixin`).
    The graph is what survives of the candidates, whatever
    ``batch_edges`` is.
    """

    name = "RMAT-disk"
    rmat_only = True
    complexity = Complexity("O(|E| log|V|) + sort(|E|)", "O(batch)", "WES")

    def __init__(self, *args, epsilon: float = 0.01, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if epsilon < 0:
            raise ConfigurationError("epsilon must be >= 0")
        self.epsilon = epsilon

    def _map_tasks(self) -> list[tuple[np.random.Generator, int]]:
        return [(self.rng(_TAG_EDGES),
                 int(self.num_edges * (1 + self.epsilon)))]
