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
import tempfile
from typing import Iterator

import numpy as np

from ..core.seed import SeedMatrix
from ..core.tables import _alias_table
from ..errors import ConfigurationError
from ..util.external_sort import unique_sorted
from ..util.spill import SpillStore
from .base import (BYTES_PER_EDGE_IN_MEMORY, Complexity, ScopeBasedGenerator,
                   StreamingDedupMixin)

__all__ = ["PathSampler", "rmat_edge_batch", "RmatMemGenerator",
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

    Determinism key: :meth:`keys` consumes exactly one
    ``rng.random(count)`` per chunk, chunks in order from the most
    significant levels down; edge ``i`` takes element ``i`` of each.
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
            slots = 1 << (pmf.size - 1).bit_length()
            pad = (0, slots - pmf.size)
            threshold, alias = _alias_table(np.pad(pmf, pad))
            contrib = np.pad((u * order ** levels + v) * order ** below, pad)
            self._tables.append((float(slots), threshold, np.column_stack(
                [contrib[alias], contrib]).ravel()))

    def keys(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` packed keys (repeats possible)."""
        key = np.zeros(count, dtype=np.int64)
        for slots, threshold, contrib in self._tables:
            r = rng.random(count)
            r *= slots
            slot = r.astype(np.int64)
            r -= slot
            own = r < threshold[slot]
            slot <<= 1
            slot += own
            key += contrib[slot]
        return key


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
    complexity = Complexity("O(|E| log|V|)", "O(|E|)", "WES")

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        sampler = PathSampler(self.seed_matrix, self.scale)
        return self.unpack_edges(self.collect_distinct_keys(
            lambda count: sampler.keys(count, rng)))


class RmatDiskGenerator(StreamingDedupMixin):
    """RMAT with external-sort duplicate elimination (WES, disk-based).

    Generates ``|E| * (1 + epsilon)`` candidate edges in batches of
    ``batch_edges``, spills each batch as a sorted duplicate-free run
    (atomically, see :mod:`repro.util.spill`), and streams the one-pass
    partitioned sort (:func:`repro.util.external_sort.iter_unique_keys`)
    in buckets of about ``batch_edges`` keys.  Peak memory is
    ``O(batch_edges)`` keys end to end — never the edge set — so
    :meth:`write_to` can produce graphs larger than RAM.
    """

    name = "RMAT-disk"
    complexity = Complexity("O(|E| log|V|) + sort(|E|)", "O(batch)", "WES")

    def __init__(self, *args, batch_edges: int = 1 << 18,
                 epsilon: float = 0.01, spill_dir: str | None = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if batch_edges < 1:
            raise ConfigurationError("batch_edges must be >= 1")
        if epsilon < 0:
            raise ConfigurationError("epsilon must be >= 0")
        self.batch_edges = batch_edges
        self.epsilon = epsilon
        self.spill_dir = spill_dir

    def estimated_peak_bytes(self) -> int:
        return self.batch_edges * BYTES_PER_EDGE_IN_MEMORY

    def iter_unique_key_chunks(self) -> Iterator[np.ndarray]:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        report = self.report
        target = int(self.num_edges * (1 + self.epsilon))
        with tempfile.TemporaryDirectory(dir=self.spill_dir) as tmp:
            store = SpillStore(tmp)
            with report.time_phase("generate"):
                sampler = PathSampler(self.seed_matrix, self.scale)
                for drawn in range(0, target, self.batch_edges):
                    count = min(self.batch_edges, target - drawn)
                    store.add_run(unique_sorted(
                        np.sort(sampler.keys(count, rng))))
            emitted = 0
            for chunk in report.time_each("external_sort", store.iter_unique(
                    chunk_items=self.batch_edges)):
                emitted += int(chunk.size)
                yield chunk
        report.duplicates_discarded = target - emitted
        report.realized_edges = emitted
        report.peak_memory_bytes = self.estimated_peak_bytes()
