"""WES/p — the merge-based parallel RMAT variant (Section 3.2, Algorithm 3).

``P`` workers each generate ``|E|/P * (1 + epsilon)`` edges over the *whole*
adjacency matrix, then all edges are shuffled by a hash of the edge key and
each worker merge-deduplicates its incoming partition.  This is the paper's
RMAT/p baseline (their own distributed implementation used in Figure 11(b)).

Two duplicate-elimination variants, as in the paper:

- :class:`WespMemGenerator` — in-memory merge (fails the memory budget for
  graphs whose per-worker partition exceeds it, and suffers partition skew);
- :class:`WespDiskGenerator` — external sort per partition.

This module executes the P logical workers within one process (the data
movement and merge work is identical); :mod:`repro.dist.runner` runs the
same dataflow across real processes.
"""

from __future__ import annotations

import tempfile
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError
from ..util.external_sort import unique_sorted
from ..util.shuffle import hash_partition
from ..util.spill import SpillStore
from .base import (BYTES_PER_EDGE_IN_MEMORY, Complexity, ScopeBasedGenerator,
                   StreamingDedupMixin)
from .rmat import PathSampler

__all__ = ["WespMemGenerator", "WespDiskGenerator"]

_TAG_WORKER = 7


class _WespBase(ScopeBasedGenerator):
    """Shared generate/shuffle phases of WES/p."""

    def __init__(self, *args, num_workers: int = 4, epsilon: float = 0.01,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if epsilon < 0:
            raise ConfigurationError("epsilon must be >= 0")
        self.num_workers = num_workers
        self.epsilon = epsilon

    def _generate_local_sets(self) -> list[np.ndarray]:
        """Algorithm 3 lines 1-6: each worker's local (deduplicated) edge
        key set of target size |E|/P * (1 + epsilon)."""
        per_worker = int(np.ceil(self.num_edges / self.num_workers
                                 * (1 + self.epsilon)))
        sampler = PathSampler(self.seed_matrix, self.scale)
        local_sets = []
        for worker in range(self.num_workers):
            unique = unique_sorted(np.sort(sampler.keys(
                per_worker, self.rng(_TAG_WORKER, worker))))
            self.report.duplicates_discarded += per_worker - unique.size
            local_sets.append(unique)
        return local_sets

    def _shuffle(self, local_sets: list[np.ndarray]) -> list[np.ndarray]:
        """Algorithm 3 line 7: hash-shuffle local sets across workers.

        Returns per-destination-worker partitions; also records the skew
        the paper blames for WES/p's scaling wall.
        """
        partitions: list[list[np.ndarray]] = [
            [] for _ in range(self.num_workers)]
        for keys in local_sets:
            parts = hash_partition(keys, self.num_workers)
            for w, part in enumerate(parts):
                partitions[w].append(part)
        merged = [np.concatenate(parts) if parts else
                  np.empty(0, dtype=np.int64) for parts in partitions]
        sizes = np.array([m.size for m in merged], dtype=np.float64)
        if sizes.sum() > 0:
            self.report.phase_seconds.setdefault("shuffle", 0.0)
            self.skew = float(sizes.max() / max(sizes.mean(), 1.0))
        else:
            self.skew = 1.0
        return merged


class WespMemGenerator(_WespBase):
    """WES/p with in-memory merge (the paper's RMAT/p-mem)."""

    name = "RMAT/p-mem"
    complexity = Complexity(
        "O(|E| log|V| / P) + T_shuffle + T_merge", "O(|E| / P)", "WES/p")

    def estimated_peak_bytes(self) -> int:
        # The largest post-shuffle partition must fit in one worker.  With
        # hashing the expectation is |E|/P, but skew pushes it higher; use
        # the expectation for the up-front check (skew shows up in results).
        return int(self.num_edges / self.num_workers
                   * BYTES_PER_EDGE_IN_MEMORY)

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        report = self.report
        with report.time_phase("generate"):
            local_sets = self._generate_local_sets()
        with report.time_phase("shuffle"):
            partitions = self._shuffle(local_sets)
        with report.time_phase("merge"):
            merged_parts = []
            peak = 0
            for part in partitions:
                unique = unique_sorted(np.sort(part))
                report.duplicates_discarded += part.size - unique.size
                merged_parts.append(unique)
                peak = max(peak, part.size * BYTES_PER_EDGE_IN_MEMORY)
        keys = np.sort(np.concatenate(merged_parts)) if merged_parts \
            else np.empty(0, dtype=np.int64)
        report.realized_edges = keys.size
        report.peak_memory_bytes = peak
        return self.unpack_edges(keys)


class WespDiskGenerator(StreamingDedupMixin, _WespBase):
    """WES/p with external-sort merge (the paper's RMAT/p-disk).

    Every partition's batches are spilled as sorted runs and *one*
    global partitioned pass streams the deduplicated union — the
    sorted union over all partitions equals the sorted union over all
    local sets, so the output is identical to
    :class:`WespMemGenerator` while peak merge memory stays at
    ``O(batch_edges)`` keys.
    """

    name = "RMAT/p-disk"
    complexity = Complexity(
        "O(|E| log|V| / P) + T_shuffle + sort(|E|/P)", "O(batch)", "WES/p")

    def __init__(self, *args, batch_edges: int = 1 << 18,
                 spill_dir: str | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if batch_edges < 1:
            raise ConfigurationError("batch_edges must be >= 1")
        self.batch_edges = batch_edges
        self.spill_dir = spill_dir

    def estimated_peak_bytes(self) -> int:
        return self.batch_edges * BYTES_PER_EDGE_IN_MEMORY

    def iter_unique_key_chunks(self) -> Iterator[np.ndarray]:
        self.check_memory_budget()
        report = self.report
        with report.time_phase("generate"):
            local_sets = self._generate_local_sets()
        with report.time_phase("shuffle"):
            partitions = self._shuffle(local_sets)
        del local_sets
        before = sum(int(p.size) for p in partitions)
        emitted = 0
        with tempfile.TemporaryDirectory(dir=self.spill_dir) as tmp:
            with report.time_phase("merge"):
                store = SpillStore(tmp)
                for part in partitions:
                    for j in range(0, part.size, self.batch_edges):
                        store.add_run(np.sort(part[j:j + self.batch_edges]))
                del partitions
            for chunk in report.time_each("merge", store.iter_unique(
                    chunk_items=self.batch_edges)):
                emitted += int(chunk.size)
                yield chunk
        report.duplicates_discarded += before - emitted
        report.realized_edges = emitted
        report.peak_memory_bytes = self.estimated_peak_bytes()
