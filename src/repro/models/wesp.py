"""WES/p — the merge-based parallel RMAT variant (Section 3.2, Algorithm 3).

``P`` workers each generate ``|E|/P * (1 + epsilon)`` edges over the *whole*
adjacency matrix, then all edges are shuffled by a hash of the edge key and
each worker merge-deduplicates its incoming partition.  This is the paper's
RMAT/p baseline (their own distributed implementation used in Figure 11(b)).

Two duplicate-elimination variants, as in the paper:

- :class:`WespMemGenerator` — in-memory merge (fails the memory budget for
  graphs whose per-worker partition exceeds it, and suffers partition skew);
- :class:`WespDiskGenerator` — external sort.

Each worker is one WES map task (:func:`worker_task`), drawn batch by
batch and hash-counted for the skew.  This module runs the ``P`` workers
within one process.
"""

from __future__ import annotations

import numpy as np

from ..core.rng import stream
from ..errors import ConfigurationError
from ..util.external_sort import collect_chunks, unique_sorted
from ..util.shuffle import partition_sizes, partition_skew
from .base import (BYTES_PER_EDGE_IN_MEMORY, Complexity, ScopeBasedGenerator,
                   StreamingDedupMixin)

__all__ = ["WespMemGenerator", "WespDiskGenerator", "worker_task"]

_TAG_WORKER = 7


def worker_task(seed: int, worker: int, num_edges: int, num_workers: int,
                epsilon: float) -> tuple[np.random.Generator, int]:
    """Algorithm 3 lines 1-6 for one worker, as a ``(stream, count)`` map
    task: ``|E|/P * (1 + epsilon)`` keys from the worker's own stream."""
    return (stream(seed, _TAG_WORKER, worker),
            int(np.ceil(num_edges / num_workers * (1 + epsilon))))


class _WespBase(ScopeBasedGenerator):
    """The ``P`` map tasks of WES/p and the skew of their shuffle."""

    rmat_only = True

    def __init__(self, *args, num_workers: int = 4, epsilon: float = 0.01,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if epsilon < 0:
            raise ConfigurationError("epsilon must be >= 0")
        self.num_workers = num_workers
        self.epsilon = epsilon
        self._partition_sizes = np.zeros(num_workers, dtype=np.int64)

    def _map_tasks(self) -> list[tuple[np.random.Generator, int]]:
        """One task per worker; a run starts, so the skew count too."""
        self._partition_sizes[:] = 0
        return [worker_task(self.seed, worker, self.num_edges,
                            self.num_workers, self.epsilon)
                for worker in range(self.num_workers)]

    def _route(self, batch: np.ndarray) -> None:
        """Algorithm 3 line 7, counted: the batch's hash partitions."""
        with self.report.time_phase("shuffle"):
            self._partition_sizes += partition_sizes(batch,
                                                     self.num_workers)

    @property
    def skew(self) -> float:
        """:func:`~repro.util.shuffle.partition_skew` of the last run."""
        return partition_skew(self._partition_sizes)


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
        tasks = self._map_tasks()
        batches = list(self._map_batches(tasks))
        with report.time_phase("merge"):
            keys = unique_sorted(np.sort(collect_chunks(batches)))
        report.duplicates_discarded = sum(n for _, n in tasks) - keys.size
        report.realized_edges = keys.size
        report.peak_memory_bytes = (int(self._partition_sizes.max())
                                    * BYTES_PER_EDGE_IN_MEMORY)
        return self.unpack_edges(keys)


class WespDiskGenerator(_WespBase, StreamingDedupMixin):
    """WES/p with external-sort merge (the paper's RMAT/p-disk).

    Every worker's batches spill as runs as they are drawn (``P x
    batches`` runs) and *one* partitioned pass streams their union: the
    output is :class:`WespMemGenerator`'s in ``O(batch_edges)`` keys.
    """

    name = "RMAT/p-disk"
    complexity = Complexity(
        "O(|E| log|V| / P) + T_shuffle + sort(|E|/P)", "O(batch)", "WES/p")
    sort_phase = "merge"
