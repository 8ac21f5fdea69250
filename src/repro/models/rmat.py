"""RMAT — the WES (Whole Edges Scope) baseline (Section 2.1).

RMAT generates each edge by ``log2(|V|)`` recursive quadrant selections over
the whole adjacency matrix and keeps every generated edge in memory to
eliminate duplicates, giving O(|E| log|V|) time and O(|E|) space (Table 1).

Two variants are provided, matching Figure 11(a)'s bars:

- :class:`RmatMemGenerator` — in-memory duplicate elimination (the default
  RMAT); subject to the memory budget (O.O.M past the budget).
- :class:`RmatDiskGenerator` — duplicates eliminated by external sort on
  disk, trading memory for I/O (the paper measures it ~18.5x slower than
  TrillionG/seq).
"""

from __future__ import annotations

import tempfile
from typing import Iterator

import numpy as np

from ..errors import GenerationError
from ..util.external_sort import DEFAULT_FAN_IN
from ..util.spill import SpillStore
from .base import (BYTES_PER_EDGE_IN_MEMORY, Complexity, ScopeBasedGenerator,
                   StreamingDedupMixin, dedup_edges)

__all__ = ["rmat_edge_batch", "RmatMemGenerator", "RmatDiskGenerator"]

_TAG_EDGES = 1
_MAX_ROUNDS = 200


def rmat_edge_batch(seed_matrix, levels: int, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` edges by recursive quadrant selection (may repeat).

    Vectorized over edges: each of the ``levels`` recursion steps draws one
    uniform per edge and picks a quadrant, appending one bit to the source
    and one to the destination — exactly the Figure 1(b) process, batched.
    """
    cum = np.cumsum(seed_matrix.entries.ravel())[:-1]
    u = np.zeros(count, dtype=np.int64)
    v = np.zeros(count, dtype=np.int64)
    for _ in range(levels):
        r = rng.random(count)
        quadrant = np.searchsorted(cum, r, side="right")
        u = (u << 1) | (quadrant >> 1)
        v = (v << 1) | (quadrant & 1)
    return np.column_stack([u, v])


class RmatMemGenerator(ScopeBasedGenerator):
    """RMAT with in-memory duplicate elimination (WES)."""

    name = "RMAT-mem"
    complexity = Complexity("O(|E| log|V|)", "O(|E|)", "WES")

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        report = self.report
        keys = np.empty(0, dtype=np.int64)
        shortfall = self.num_edges
        with report.time_phase("generate"):
            for _ in range(_MAX_ROUNDS):
                batch = rmat_edge_batch(self.seed_matrix, self.scale,
                                        shortfall, rng)
                new = np.sort(self.pack_edges(batch))
                merged = np.sort(np.concatenate([keys, new]))
                keep = np.empty(merged.size, dtype=bool)
                keep[0] = True
                np.not_equal(merged[1:], merged[:-1], out=keep[1:])
                unique = merged[keep]
                report.duplicates_discarded += merged.size - unique.size
                keys = unique
                shortfall = self.num_edges - keys.size
                if shortfall <= 0:
                    break
            else:
                raise GenerationError(
                    "RMAT failed to collect |E| distinct edges")
        report.realized_edges = keys.size
        report.peak_memory_bytes = keys.size * BYTES_PER_EDGE_IN_MEMORY
        return self.unpack_edges(keys)


class RmatDiskGenerator(StreamingDedupMixin):
    """RMAT with external-sort duplicate elimination (WES, disk-based).

    Generates ``|E| * (1 + epsilon)`` candidate edges in bounded-memory
    batches, spills sorted runs to disk (atomically, see
    :mod:`repro.util.spill`), and streams the multi-pass bounded-fan-in
    merge with duplicates dropped.  Peak memory is
    ``O(fan_in * spill_chunk)`` keys end to end — never the edge set —
    so :meth:`write_to` can produce graphs larger than RAM.
    """

    name = "RMAT-disk"
    complexity = Complexity("O(|E| log|V|) + sort(|E|)", "O(batch)", "WES")

    def __init__(self, *args, batch_edges: int = 1 << 18,
                 epsilon: float = 0.01, spill_dir: str | None = None,
                 fan_in: int = DEFAULT_FAN_IN,
                 spill_chunk: int | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.batch_edges = batch_edges
        self.epsilon = epsilon
        self.spill_dir = spill_dir
        self.fan_in = fan_in
        #: Keys per merge-read chunk; defaults to one generation batch.
        self.spill_chunk = spill_chunk

    def estimated_peak_bytes(self) -> int:
        return self.batch_edges * BYTES_PER_EDGE_IN_MEMORY

    def iter_unique_key_chunks(self) -> Iterator[np.ndarray]:
        self.check_memory_budget()
        rng = self.rng(_TAG_EDGES)
        report = self.report
        target = int(self.num_edges * (1 + self.epsilon))
        chunk_items = self.spill_chunk or self.batch_edges
        with tempfile.TemporaryDirectory(dir=self.spill_dir) as tmp:
            store = SpillStore(tmp)
            produced = 0
            with report.time_phase("generate"):
                while produced < target:
                    count = min(self.batch_edges, target - produced)
                    batch = rmat_edge_batch(self.seed_matrix, self.scale,
                                            count, rng)
                    store.add_run(np.sort(self.pack_edges(batch)))
                    produced += count
            emitted = 0
            for chunk in report.time_each("external_sort", store.iter_unique(
                    chunk_items=chunk_items, fan_in=self.fan_in)):
                emitted += int(chunk.size)
                yield chunk
        report.duplicates_discarded = produced - emitted
        report.realized_edges = emitted
        report.peak_memory_bytes = self.estimated_peak_bytes()
