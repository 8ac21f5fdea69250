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
:class:`DistributedResult`.  :meth:`LocalCluster.generate_checkpointed`
additionally journals every finished chunk into a
:class:`~repro.dist.checkpoint.CheckpointedRun` manifest, so a killed
parallel run resumes where it stopped — still bit-identical.
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
from .checkpoint import CheckpointedRun
from .faults import RetryPolicy, TaskAttempt, pick_start_method, run_tasks
from .partition import Bin, range_partition

__all__ = ["ClusterSpec", "WorkerResult", "DistributedResult",
           "LocalCluster"]


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
    #: Manifest of the run, when generated via generate_checkpointed.
    checkpoint: CheckpointedRun | None = None

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
    """Subprocess entry point: generate one vertex range to one part file.

    Module-level and driven purely by the picklable ``args`` tuple so it
    round-trips under both fork and spawn start methods.
    """
    (worker, start, stop, gen_kwargs, fmt_name, out_path) = args
    with span("worker.generate", worker=worker) as sp:
        generator = RecursiveVectorGenerator(**gen_kwargs)
        fmt = get_format(fmt_name)
        result = fmt.write_blocks(out_path,
                                  generator.iter_blocks(start, stop),
                                  generator.num_vertices)
    return WorkerResult(worker, start, stop, result.num_edges,
                        str(out_path), sp.seconds,
                        encode_seconds=result.encode_seconds,
                        write_seconds=result.write_seconds)


def _worker_chunk(args: tuple) -> WorkerResult:
    """Subprocess entry point for one checkpoint chunk, published by
    :func:`~repro.atomic.atomic_write` — the parent records the chunk in
    the manifest only after this returns."""
    (chunk, start, stop, gen_kwargs, fmt_name, final_path) = args
    with span("worker.chunk", chunk=chunk) as sp:
        generator = RecursiveVectorGenerator(**gen_kwargs)
        fmt = get_format(fmt_name)
        with atomic_write(final_path) as tmp:
            result = fmt.write_blocks(tmp, generator.iter_blocks(start, stop),
                                      generator.num_vertices)
    return WorkerResult(chunk, start, stop, result.num_edges,
                        str(final_path), sp.seconds,
                        encode_seconds=result.encode_seconds,
                        write_seconds=result.write_seconds)


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

    # ------------------------------------------------------------------

    def _build_tasks(self, generator: RecursiveVectorGenerator,
                     out_dir: Path, ranges: list[Bin],
                     fmt_name: str) -> list[tuple]:
        gen_kwargs = generator.recipe()
        return [
            (w, r.start, r.stop, gen_kwargs, fmt_name,
             str(out_dir / f"part-{w:04d}.{fmt_name}"))
            for w, r in enumerate(ranges)
        ]

    @staticmethod
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

    @staticmethod
    def _pool_size(processes: int | None, num_tasks: int,
                   logical_workers: int) -> int:
        if processes is not None:
            return processes
        return min(logical_workers, num_tasks, mp.cpu_count())

    def _run_supervised(self, tasks: list[tuple], worker, pool_size: int,
                        retry: RetryPolicy | None,
                        start_method: str | None,
                        on_result=None,
                        ) -> tuple[list[WorkerResult],
                                   dict[int, list[TaskAttempt]]]:
        """Shared scatter path: resolve the start method and run the
        scheduler with the part-file check."""
        ctx = mp.get_context(start_method if start_method is not None
                             else pick_start_method())
        return run_tasks(tasks, worker, pool_size=pool_size, policy=retry,
                         validate=self._validate_part, on_result=on_result,
                         mp_context=ctx)

    # ------------------------------------------------------------------

    def generate_to_files(self, generator: RecursiveVectorGenerator,
                          out_dir: Path | str,
                          fmt_name: str = "adj6",
                          processes: int | None = None, *,
                          retry: RetryPolicy | None = None,
                          start_method: str | None = None,
                          progress: Callable[[int], None] | None = None,
                          ) -> DistributedResult:
        """Partition, scatter, and generate part files in parallel.

        ``processes`` caps the real OS processes (defaults to the logical
        worker count; the logical partitioning is unaffected).  ``retry``
        configures the fault-tolerance layer (retries and the per-attempt
        timeout).  ``start_method`` forces ``fork``/``spawn`` (default: fork where
        available, spawn otherwise).  ``progress`` is called with the
        cumulative edge count as each partition lands.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = DistributedResult()
        with span("partition", workers=self.spec.num_workers) as sp:
            ranges = range_partition(generator, self.spec.num_workers)
        result.partition_seconds = sp.seconds

        tasks = self._build_tasks(generator, out_dir, ranges, fmt_name)
        pool_size = self._pool_size(processes, len(tasks),
                                    self.spec.num_workers)
        with span("scatter", tasks=len(tasks), pool=pool_size) as sp:
            result.workers, result.task_attempts = self._run_supervised(
                tasks, _worker_generate, pool_size, retry, start_method,
                on_result=_progress_hook(progress))
        result.elapsed_seconds = sp.seconds + result.partition_seconds
        return result

    def generate_checkpointed(self, generator: RecursiveVectorGenerator,
                              out_dir: Path | str,
                              fmt_name: str = "adj6",
                              blocks_per_chunk: int = 16,
                              processes: int | None = None, *,
                              retry: RetryPolicy | None = None,
                              start_method: str | None = None,
                              progress: Callable[[int], None]
                              | None = None,
                              ) -> DistributedResult:
        """Parallel *and* resumable generation: chunked like
        :class:`~repro.dist.checkpoint.CheckpointedRun`, scattered like
        :meth:`generate_to_files`.

        Each finished chunk is recorded in the manifest as it lands, so a
        killed run (even ``SIGKILL``) resumes from the completed chunks
        and the final output is bit-identical to an uninterrupted — or a
        sequential — run of the same configuration.  Returns a
        :class:`DistributedResult` covering the chunks generated by
        *this* call, with ``checkpoint`` holding the full manifest view.
        """
        run = CheckpointedRun(generator, out_dir, fmt_name,
                              blocks_per_chunk)
        pending = run.pending()
        gen_kwargs = generator.recipe()
        chunk_index = {name: i for i, (name, _, _)
                       in enumerate(run.chunk_ranges())}
        tasks = [
            (chunk_index[name], lo, hi, gen_kwargs, fmt_name,
             str(run.out_dir / name))
            for name, lo, hi in pending
        ]
        names = [name for name, _, _ in pending]

        tick = _progress_hook(progress)

        def record(position: int, worker_result: WorkerResult) -> None:
            run.mark_complete(names[position], worker_result.num_edges)
            if tick is not None:
                tick(position, worker_result)

        result = DistributedResult(checkpoint=run)
        pool_size = self._pool_size(processes, len(tasks),
                                    self.spec.num_workers)
        with span("scatter", tasks=len(tasks), pool=pool_size) as sp:
            result.workers, result.task_attempts = self._run_supervised(
                tasks, _worker_chunk, pool_size, retry, start_method,
                on_result=record)
        result.elapsed_seconds = sp.seconds
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
