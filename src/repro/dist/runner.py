"""Local multiprocessing cluster for distributed AVS generation.

Stands in for the paper's Spark cluster of "machines x threads": workers are
OS processes on this host, each generating a Figure 6 partition of the
vertex range and writing its own output part file (the paper's per-worker
HDFS parts).  Because the AVS generator's randomness is keyed per block,
the distributed output is bit-identical to a sequential run over the same
configuration.

Execution is supervised by the fault-tolerance layer
(:mod:`repro.dist.faults`): each partition runs under a per-attempt
timeout, crashed or hung workers are killed and retried with backoff,
and the full per-task attempt history is recorded on the
:class:`DistributedResult`.  :func:`scatter` is the one path that writes
a vertex range to a file: :meth:`LocalCluster.generate_to_files` runs it
over the partitions, and
:meth:`~repro.dist.checkpoint.CheckpointedRun.run` over the pending
chunks of a resumable run.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..atomic import atomic_write
from ..core.generator import RecursiveVectorGenerator
from ..errors import WorkerError
from ..formats import get_format
from ..telemetry import span
from .faults import RetryPolicy, TaskAttempt, run_tasks
from .partition import range_partition

__all__ = ["ClusterSpec", "WorkerResult", "DistributedResult",
           "LocalCluster", "scatter", "worker_processes"]


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
    """Outcome of a distributed generation run."""

    workers: list[WorkerResult] = field(default_factory=list)
    partition_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    #: task index -> every attempt the scheduler made for it.
    task_attempts: dict[int, list[TaskAttempt]] = field(
        default_factory=dict)

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
    def edges_per_second(self) -> float:
        """End-to-end edge throughput of the run (0 when untimed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.num_edges / self.elapsed_seconds

    @property
    def skew(self) -> float:
        """Max worker edge count over the mean — the load-balance metric
        the Figure 6 partitioner is designed to keep near 1."""
        counts = np.array([w.num_edges for w in self.workers], dtype=float)
        if counts.size == 0 or counts.mean() == 0:
            return 1.0
        return float(counts.max() / counts.mean())


def _worker_generate(args: tuple) -> WorkerResult:
    """Subprocess entry point: generate one vertex range to one file.

    The file is published by :func:`~repro.atomic.atomic_write`, so a
    part or chunk is whole once it exists; the checkpoint manifest
    records a chunk only after this returns.  Module-level and driven
    purely by the picklable ``args`` tuple (its ``Recipe`` is the graph)
    so it round-trips under both fork and spawn start methods.
    """
    (worker, start, stop, recipe, fmt_name, out_path) = args
    with span("worker.generate", worker=worker) as sp:
        generator = recipe.build()
        fmt = get_format(fmt_name)
        with atomic_write(out_path) as tmp:
            result = fmt.write_blocks(tmp, generator.iter_blocks(start, stop),
                                      generator.num_vertices)
    return WorkerResult(worker, start, stop, result.num_edges,
                        str(out_path), sp.seconds,
                        encode_seconds=result.encode_seconds,
                        write_seconds=result.write_seconds)


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
            ) -> DistributedResult:
    """Write each ``(index, start, stop, name)`` job's vertex range to
    ``out_dir / name``: the one way ``dist`` writes a graph range.

    The jobs run as :func:`_worker_generate` tasks ``(index, start,
    stop, generator.recipe(), fmt_name, path)`` under
    :func:`~repro.dist.faults.run_tasks` (in-process at ``pool_size <=
    1``), each checked by :func:`_validate_part`; ``on_result(position,
    result)`` fires in the supervisor as each lands.  Afterwards the
    ``*.partial.*`` temporaries that killed attempts left for these
    names are deleted, and no other file.
    """
    # Refuses a generator without a recipe before touching the disk.
    recipe = generator.recipe()
    tasks = [(index, start, stop, recipe, fmt_name, str(out_dir / name))
             for index, start, stop, name in jobs]
    out_dir.mkdir(parents=True, exist_ok=True)
    result = DistributedResult()
    with span("scatter", tasks=len(tasks), pool=pool_size) as sp:
        try:
            result.workers, result.task_attempts = run_tasks(
                tasks, _worker_generate, pool_size=pool_size,
                policy=retry, validate=_validate_part,
                on_result=on_result)
        finally:
            for *_, name in jobs:
                for stray in out_dir.glob(f"{name}.partial.*"):
                    stray.unlink(missing_ok=True)
    result.elapsed_seconds = sp.seconds
    return result


def worker_processes(processes: int | None, num_tasks: int,
                     logical_workers: int) -> int:
    """Worker processes for a scatter: ``processes`` when given, else
    one per logical worker and task, at most one per CPU."""
    if processes is not None:
        return processes
    return min(logical_workers, num_tasks, mp.cpu_count())


def _progress_hook(progress: Callable[[int], None] | None
                   ) -> Callable[[int, WorkerResult], None] | None:
    """Adapt a cumulative-edge ``progress`` callback to the scheduler's
    per-task ``on_result(index, result)`` hook."""
    if progress is None:
        return None
    edges_done = 0

    def hook(index: int, worker_result: WorkerResult) -> None:
        nonlocal edges_done
        edges_done += worker_result.num_edges
        progress(edges_done)

    return hook


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
        """Partition, scatter, and generate part files in parallel.

        ``processes`` caps the real OS processes (defaults to the logical
        worker count; the logical partitioning is unaffected).  ``retry``
        configures the fault-tolerance layer (retries and the per-attempt
        timeout).  ``progress`` is called with 0 before any partition is
        written, then with the cumulative edge count as each lands.
        """
        with span("partition", workers=self.spec.num_workers) as sp:
            ranges = range_partition(generator, self.spec.num_workers)
        jobs = [(w, r.start, r.stop, f"part-{w:04d}.{fmt_name}")
                for w, r in enumerate(ranges)]
        if progress is not None:
            progress(0)
        result = scatter(
            generator, Path(out_dir), jobs, fmt_name,
            worker_processes(processes, len(jobs), self.spec.num_workers),
            retry,
            _progress_hook(progress))
        result.partition_seconds = sp.seconds
        result.elapsed_seconds += sp.seconds
        return result

    def read_all_edges(self, result: DistributedResult,
                       fmt_name: str = "adj6") -> np.ndarray:
        """Concatenate all part files back into one edge array (for
        verification; paper-scale outputs would stay on disk)."""
        fmt = get_format(fmt_name)
        parts = [fmt.read_edges(p) for p in result.paths]
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(parts)
