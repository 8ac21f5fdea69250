"""The scope-based generation framework (Section 3, Algorithms 1-2).

Every generator in :mod:`repro.models` is an instance of the scope-based
model: it is characterized by its scope shape (WES / AES / AVS), carries the
corresponding time/space complexity (Table 1), and produces the same
stochastic graph family.  The :class:`ScopeBasedGenerator` base class holds
the shared configuration, the Table 1 complexity metadata, and the simulated
memory budget used to reproduce the paper's O.O.M outcomes deterministically.
"""

from __future__ import annotations

import tempfile
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..core.rng import stream
from ..core.seed import GRAPH500, SeedMatrix
from ..errors import ConfigurationError, GenerationError, OutOfMemoryError
from ..util.external_sort import collect_chunks, unique_sorted
from ..util.spill import SpillStore

if TYPE_CHECKING:
    from pathlib import Path

    from ..core.generator import AdjacencyBlock
    from ..formats.base import WriteResult

__all__ = ["Complexity", "GenerationReport", "ScopeBasedGenerator",
           "StreamingDedupMixin", "dedup_edges",
           "BYTES_PER_EDGE_IN_MEMORY", "BATCH_EDGES"]

#: Top-up rounds after which an in-memory WES model gives up on |E|.
_MAX_ROUNDS = 200

#: Working-set bytes per edge for in-memory duplicate elimination: an 8-byte
#: packed key plus hash-set overhead (the constant used for O.O.M checks).
BYTES_PER_EDGE_IN_MEMORY = 16

#: Keys per WES map batch when the caller names none: the draw batch,
#: the spill run and the external-sort bucket.  It bounds memory and
#: changes no key (:meth:`repro.models.rmat.PathSampler.batches`).
BATCH_EDGES = 1 << 18


@dataclass(frozen=True)
class Complexity:
    """Asymptotic complexity row of Table 1."""

    time: str
    space: str
    scope: str  # "WES", "AES", "AVS", or a variant label


@dataclass
class GenerationReport:
    """What a generation run did: realized counts, phase timings, and the
    peak working set (estimated from array sizes, since the experiments at
    paper scale run through the cost model, not psutil)."""

    model: str
    num_vertices: int = 0
    requested_edges: int = 0
    realized_edges: int = 0
    duplicates_discarded: int = 0
    peak_memory_bytes: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Bytes the run wrote to disk (0 for in-memory-only runs).
    bytes_written: int = 0

    @property
    def elapsed_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def time_phase(self, name: str):
        """Context manager recording a named phase's wall time."""
        return _PhaseTimer(self, name)

    def time_each(self, name: str, items: Iterator) -> Iterator:
        """Yield from ``items``, billing phase ``name`` for producing each
        item only: a timer left open across the ``yield`` would bill the
        consumer's time to the producer."""
        while True:
            with self.time_phase(name):
                try:
                    item = next(items)
                except StopIteration:
                    return
            yield item


class _PhaseTimer:
    def __init__(self, report: GenerationReport, name: str) -> None:
        self._report = report
        self._name = name

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter() - self._start
        phases = self._report.phase_seconds
        phases[self._name] = phases.get(self._name, 0.0) + elapsed


class ScopeBasedGenerator(ABC):
    """Base class for all scope-based generators (Algorithm 1's driver).

    Parameters
    ----------
    scale:
        ``log2(|V|)``.
    edge_factor:
        ``|E| / |V|``; overridden by ``num_edges``.
    seed_matrix:
        Seed probability matrix (Graph500 standard by default).
    seed:
        Master random seed.
    memory_budget:
        Optional byte budget.  Generators whose working set provably
        exceeds it raise :class:`~repro.errors.OutOfMemoryError` up front —
        this reproduces the paper's O.O.M bars (Figures 11, 14) without
        actually exhausting RAM.
    """

    #: Table 1 metadata; subclasses override.
    complexity: Complexity = Complexity("?", "?", "?")
    #: Human-readable model name used in reports and benchmark tables.
    name: str = "abstract"

    def __init__(self, scale: int, edge_factor: int = 16,
                 seed_matrix: SeedMatrix | None = None, *,
                 num_edges: int | None = None,
                 seed: int = 0,
                 memory_budget: int | None = None) -> None:
        if scale < 1:
            raise ConfigurationError("scale must be >= 1")
        self.scale = scale
        self.num_vertices = 1 << scale
        self.num_edges = (num_edges if num_edges is not None
                          else edge_factor * self.num_vertices)
        if self.num_edges < 1:
            raise ConfigurationError("num_edges must be positive")
        self.seed_matrix = (seed_matrix if seed_matrix is not None
                            else GRAPH500)
        self.seed = seed
        self.memory_budget = memory_budget
        self.report = GenerationReport(model=self.name,
                                       num_vertices=self.num_vertices,
                                       requested_edges=self.num_edges)

    # ------------------------------------------------------------------

    @abstractmethod
    def generate(self) -> np.ndarray:
        """Generate the graph; returns an ``(m, 2)`` edge array and fills
        ``self.report``."""

    def estimated_peak_bytes(self) -> int:
        """Model-specific peak working set estimate, used for the budget
        check.  Default assumes the full edge set is held in memory (the
        WES behaviour); scope-bounded models override."""
        return self.num_edges * BYTES_PER_EDGE_IN_MEMORY

    def check_memory_budget(self) -> None:
        """Raise :class:`OutOfMemoryError` if this run cannot fit."""
        if self.memory_budget is None:
            return
        required = self.estimated_peak_bytes()
        if required > self.memory_budget:
            raise OutOfMemoryError(
                f"{self.name} needs ~{required / 2**30:.2f} GiB but the "
                f"budget is {self.memory_budget / 2**30:.2f} GiB",
                required_bytes=required,
                budget_bytes=self.memory_budget)

    def rng(self, *labels: int) -> np.random.Generator:
        """Per-purpose random stream (see :mod:`repro.core.rng`)."""
        return stream(self.seed, *labels)

    def collect_distinct_keys(self, draw_keys: Callable[[int], np.ndarray]
                              ) -> np.ndarray:
        """Algorithm 2's set union in bulk, for the in-memory WES models:
        draw the shortfall with ``draw_keys(count)``, merge it into the
        kept keys, drop the repeats, until ``|E|`` distinct packed keys
        are held.  Returns them ascending and fills the report."""
        report = self.report
        keys = np.empty(0, dtype=np.int64)
        with report.time_phase("generate"):
            for _ in range(_MAX_ROUNDS):
                merged = np.sort(np.concatenate(
                    [keys, draw_keys(self.num_edges - keys.size)]))
                keys = unique_sorted(merged)
                report.duplicates_discarded += merged.size - keys.size
                if keys.size >= self.num_edges:
                    break
            else:
                raise GenerationError(
                    f"{self.name} failed to collect |E| distinct edges")
        report.realized_edges = keys.size
        report.peak_memory_bytes = keys.size * BYTES_PER_EDGE_IN_MEMORY
        return keys

    def _map_batches(self, tasks: list[tuple[np.random.Generator, int]],
                     batch_edges: int = BATCH_EDGES
                     ) -> Iterator[np.ndarray]:
        """Algorithm 3's map step for the WES models: every ``(stream,
        count)`` task's batches (:func:`repro.models.rmat.map_task`),
        drawn under the ``generate`` phase, each passed to :meth:`_route`."""
        from .rmat import PathSampler, map_task  # rmat imports this module
        report = self.report
        with report.time_phase("generate"):
            sampler = PathSampler(self.seed_matrix, self.scale)
        for rng, count in tasks:
            for batch in report.time_each("generate", map_task(
                    sampler, rng, count, batch_edges)):
                self._route(batch)
                yield batch

    def _route(self, batch: np.ndarray) -> None:
        """Account one map batch (RMAT/p counts its hash partitions)."""

    # ------------------------------------------------------------------

    def pack_edges(self, edges: np.ndarray) -> np.ndarray:
        """Pack ``(u, v)`` rows into sortable int64 keys ``u * |V| + v``."""
        return edges[:, 0] * np.int64(self.num_vertices) + edges[:, 1]

    def unpack_edges(self, keys: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack_edges` (rows come out source-sorted)."""
        n = np.int64(self.num_vertices)
        return np.column_stack([keys // n, keys % n])


class StreamingDedupMixin(ScopeBasedGenerator):
    """The disk-based WES models, in ``O(batch_edges)`` keys of memory.

    Subclasses supply their ``(stream, count)`` map tasks
    (:func:`repro.models.rmat.map_task`).  :meth:`iter_unique_key_chunks`
    spills each map batch as a sorted run as it is drawn, then streams
    the one-pass sort over all runs
    (:func:`repro.util.external_sort.iter_unique_keys`).
    :meth:`iter_blocks` regroups that stream into blocks without ever
    splitting a source (so bytes equal a whole-array pass),
    :meth:`write_to` feeds them to a format's block writer, and
    :meth:`generate` keeps the whole-array contract through the engine's
    explicit terminal (:func:`repro.util.external_sort.collect_chunks`).
    """

    #: Phase that bills the external-sort pass.
    sort_phase = "external_sort"

    def __init__(self, *args, batch_edges: int = BATCH_EDGES,
                 spill_dir: str | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if batch_edges < 1:
            raise ConfigurationError("batch_edges must be >= 1")
        self.batch_edges = batch_edges
        self.spill_dir = spill_dir

    @abstractmethod
    def _map_tasks(self) -> list[tuple[np.random.Generator, int]]:
        """The ``(stream, count)`` map tasks whose keys make the graph."""

    def estimated_peak_bytes(self) -> int:
        return self.batch_edges * BYTES_PER_EDGE_IN_MEMORY

    def iter_unique_key_chunks(self) -> Iterator[np.ndarray]:
        """Yield the deduplicated edge keys as ascending int64 chunks."""
        self.check_memory_budget()
        report = self.report
        tasks = self._map_tasks()
        emitted = 0
        with tempfile.TemporaryDirectory(dir=self.spill_dir) as tmp:
            store = SpillStore(tmp)
            for batch in self._map_batches(tasks, self.batch_edges):
                with report.time_phase("generate"):
                    store.add_run(batch)
            for chunk in report.time_each(self.sort_phase, store.iter_unique(
                    chunk_items=self.batch_edges)):
                emitted += int(chunk.size)
                yield chunk
        report.duplicates_discarded = sum(n for _, n in tasks) - emitted
        report.realized_edges = emitted
        report.peak_memory_bytes = self.estimated_peak_bytes()

    def iter_blocks(self) -> Iterator[AdjacencyBlock]:
        from ..formats import blocks_from_sorted_keys
        return blocks_from_sorted_keys(self.iter_unique_key_chunks(),
                                       self.num_vertices)

    def write_to(self, path: Path | str, fmt: str = "adj6") -> WriteResult:
        """Stream the graph into ``path`` with bounded memory.

        Returns the format's :class:`~repro.formats.WriteResult`.
        """
        from ..formats import get_format
        report = self.report
        billed = report.elapsed_seconds
        start = time.perf_counter()
        result = get_format(fmt).write_blocks(path, self.iter_blocks(),
                                              self.num_vertices)
        # The consumer's share (regroup, encode, write) is the wall time
        # no producer phase billed, so ``elapsed_seconds`` covers the run.
        report.phase_seconds["write"] = (
            time.perf_counter() - start
            - (report.elapsed_seconds - billed))
        report.bytes_written = result.bytes_written
        return result

    def generate(self) -> np.ndarray:
        keys = collect_chunks(self.iter_unique_key_chunks())
        return self.unpack_edges(keys)


def dedup_edges(edges: np.ndarray, num_vertices: int
                ) -> tuple[np.ndarray, int]:
    """Remove repeated edges; returns (unique edges sorted by (u, v),
    number of duplicates removed).  This is Algorithm 2's set-union
    semantics applied in bulk."""
    if edges.shape[0] == 0:
        return edges, 0
    keys = np.sort(edges[:, 0] * np.int64(num_vertices) + edges[:, 1])
    unique = unique_sorted(keys)
    n = np.int64(num_vertices)
    return np.column_stack([unique // n, unique % n]), keys.size - unique.size
