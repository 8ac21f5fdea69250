"""The scatter of vertex ranges to files, and the cluster that runs it.

Stands in for the paper's Spark cluster of "machines x threads": workers are
OS processes on this host, each generating a Figure 6 partition of the
vertex range and writing its own output part file (the paper's per-worker
HDFS parts).  Because the AVS generator's randomness is keyed per block,
the distributed output is bit-identical to a sequential run over the same
configuration.

:func:`scatter` is the one path that writes a vertex range to a file,
supervised by the fault-tolerance layer (:mod:`repro.dist.faults`): each
range runs under a per-attempt timeout, crashed or hung workers are
killed and retried with backoff, and the full per-task attempt history
is recorded on the :class:`DistributedResult`.  :func:`repro.system.generate`
runs it over one range (a sequential run), the Figure 6 partitions, or the
pending chunks of a resumable run;
:meth:`~repro.dist.checkpoint.CheckpointedRun.run` over the latter too.
"""

from __future__ import annotations

import glob
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ..atomic import atomic_write
from ..core.generator import AdjacencyBlock, Recipe, RecursiveVectorGenerator
from ..errors import WorkerError
from ..formats import get_format
from ..telemetry import span
from .faults import RetryPolicy, TaskAttempt, run_tasks

__all__ = ["ClusterSpec", "WorkerResult", "DistributedResult",
           "LocalCluster", "scatter"]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster (paper default: 10 machines x 6
    threads = 60 workers)."""

    machines: int = 1
    threads_per_machine: int = 2

    @property
    def num_workers(self) -> int:
        return self.machines * self.threads_per_machine


@dataclass
class WorkerResult:
    """One worker's part-file outcome."""

    worker: int
    start: int
    stop: int
    num_edges: int
    path: str
    elapsed_seconds: float
    #: Wall time this worker spent encoding blocks into format bytes.
    encode_seconds: float = 0.0
    #: Wall time this worker spent inside ``file.write``.
    write_seconds: float = 0.0


@dataclass
class DistributedResult:
    """Outcome of a generation run: one :class:`WorkerResult` per file of
    the output, in vertex order.

    ``elapsed_seconds`` is the ``generate`` span's (the ``scatter``
    span's for a bare :func:`scatter`).  ``encode_seconds`` /
    ``write_seconds`` break the output cost into format encoding vs.
    ``file.write`` wall time, summed across workers (the two overlap:
    the write runs on the pipeline's background thread).  ``telemetry``
    holds the run's metrics + span report
    (:func:`repro.telemetry.build_report`).
    """

    workers: list[WorkerResult] = field(default_factory=list)
    partition_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    #: task index -> every attempt the scheduler made for it.
    task_attempts: dict[int, list[TaskAttempt]] = field(
        default_factory=dict)
    num_vertices: int = 0
    telemetry: dict = field(default_factory=dict)

    @property
    def num_edges(self) -> int:
        return sum(w.num_edges for w in self.workers)

    @property
    def paths(self) -> list[Path]:
        return [Path(w.path) for w in self.workers]

    @property
    def num_retries(self) -> int:
        """Attempts beyond the first, across all tasks."""
        return sum(max(0, len(a) - 1)
                   for a in self.task_attempts.values())

    @property
    def encode_seconds(self) -> float:
        """Total encode wall time summed across workers."""
        return sum(w.encode_seconds for w in self.workers)

    @property
    def write_seconds(self) -> float:
        """Total ``file.write`` wall time summed across workers."""
        return sum(w.write_seconds for w in self.workers)

    @property
    def bytes_written(self) -> int:
        """Bytes of the output files on disk."""
        return sum(path.stat().st_size for path in self.paths)

    @property
    def edges_per_second(self) -> float:
        """End-to-end edge throughput of the run (0 when untimed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.num_edges / self.elapsed_seconds

    @property
    def bytes_per_second(self) -> float:
        """End-to-end byte throughput of the run (0 when untimed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.bytes_written / self.elapsed_seconds

    @property
    def skew(self) -> float:
        """Max worker edge count over the mean — the load-balance metric
        the Figure 6 partitioner is designed to keep near 1."""
        counts = np.array([w.num_edges for w in self.workers], dtype=float)
        if counts.size == 0 or counts.mean() == 0:
            return 1.0
        return float(counts.max() / counts.mean())


def _worker_generate(args: tuple) -> WorkerResult:
    """Task entry point: generate one vertex range to one file.

    The file is published by :func:`~repro.atomic.atomic_write`, so a
    part, chunk or sequential output is whole once it exists; the
    checkpoint manifest records a chunk only after this returns.
    Module-level and driven purely by the ``args`` tuple, so it
    round-trips under both fork and spawn start methods: in a worker
    process its source is the graph's ``Recipe`` (built here) and its
    ``on_edges`` is ``None``; in the supervisor the source is the
    generator already built, and ``on_edges(count)`` follows each
    written block.
    """
    (worker, start, stop, source, fmt_name, out_path, on_edges) = args
    with span("worker.generate", worker=worker) as sp:
        generator = source.build() if isinstance(source, Recipe) else source
        blocks = generator.iter_blocks(start, stop)
        if on_edges is not None:
            blocks = _reporting(blocks, on_edges)
        with atomic_write(out_path) as tmp:
            result = get_format(fmt_name).write_blocks(
                tmp, blocks, generator.num_vertices)
    return WorkerResult(worker, start, stop, result.num_edges,
                        str(out_path), sp.seconds,
                        encode_seconds=result.encode_seconds,
                        write_seconds=result.write_seconds)


def _reporting(blocks: Iterator[AdjacencyBlock],
               on_edges: Callable[[int], None]
               ) -> Iterator[AdjacencyBlock]:
    """``blocks``, calling ``on_edges`` with each one's edge count once
    the writer has taken it and asked for the next.  A block is let go
    before the call."""
    for block in blocks:
        count = block.num_edges
        yield block
        del block
        on_edges(count)


def _validate_part(task: tuple, result: WorkerResult) -> None:
    """Part-file check run in the supervisor after each success: the
    file exists, and is non-empty when edges were reported."""
    path = Path(result.path)
    if not path.exists():
        raise WorkerError(
            f"worker reported success but {path} is missing")
    if result.num_edges > 0 and path.stat().st_size == 0:
        raise WorkerError(
            f"worker reported {result.num_edges} edges but "
            f"{path} is empty")


def scatter(generator: RecursiveVectorGenerator, out_dir: Path,
            jobs: list[tuple[int, int, int, str]], fmt_name: str,
            pool_size: int, retry: RetryPolicy | None,
            on_result: Callable[[int, WorkerResult], None] | None = None,
            on_edges: Callable[[int], None] | None = None,
            ) -> DistributedResult:
    """Write each ``(index, start, stop, name)`` job's vertex range to
    ``out_dir / name``: the one way a graph range is written.

    The jobs run as :func:`_worker_generate` tasks under
    :func:`~repro.dist.faults.run_tasks`, each checked by
    :func:`_validate_part`: in-process from ``generator`` itself at
    ``pool_size <= 1``, else in worker processes that build theirs from
    its recipe.  ``on_result(position, result)`` fires in the supervisor
    as each job lands; ``on_edges(count)`` counts the edges written, per
    block in-process and per job from a worker process.  Afterwards the
    ``*.partial.*`` temporaries that killed attempts left for these
    names are deleted, and no other file.
    """
    # Refuses a generator without a recipe before touching the disk.
    recipe = generator.recipe()
    in_process = pool_size <= 1
    tasks = [(index, start, stop, generator if in_process else recipe,
              fmt_name, str(out_dir / name), on_edges if in_process else None)
             for index, start, stop, name in jobs]

    def landed(position: int, worker: WorkerResult) -> None:
        if on_result is not None:
            on_result(position, worker)
        if on_edges is not None and not in_process:
            on_edges(worker.num_edges)

    out_dir.mkdir(parents=True, exist_ok=True)
    result = DistributedResult(num_vertices=generator.num_vertices)
    with span("scatter", tasks=len(tasks), pool=pool_size) as sp:
        try:
            result.workers, result.task_attempts = run_tasks(
                tasks, _worker_generate, pool_size=pool_size,
                policy=retry, validate=_validate_part, on_result=landed)
        finally:
            for *_, name in jobs:
                for stray in out_dir.glob(f"{glob.escape(name)}.partial.*"):
                    stray.unlink(missing_ok=True)
    result.elapsed_seconds = sp.seconds
    return result


class LocalCluster:
    """A pool of worker processes executing AVS generation partitions."""

    def __init__(self, spec: ClusterSpec | None = None,
                 num_workers: int | None = None) -> None:
        if spec is None:
            workers = num_workers if num_workers is not None else 2
            spec = ClusterSpec(machines=1, threads_per_machine=workers)
        self.spec = spec

    def generate_to_files(self, generator: RecursiveVectorGenerator,
                          out_dir: Path | str,
                          fmt_name: str = "adj6",
                          processes: int | None = None, *,
                          retry: RetryPolicy | None = None,
                          progress: Callable[[int], None] | None = None,
                          ) -> DistributedResult:
        """:func:`repro.system.generate` over this cluster's workers: one
        part file per Figure 6 range in ``out_dir`` (with more than one
        worker), at most ``processes`` at a time."""
        from ..system import generate   # system drives dist: import late
        return generate(generator, out_dir, fmt_name,
                        workers=self.spec.num_workers, processes=processes,
                        retry=retry, progress=progress)
