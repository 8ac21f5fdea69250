"""The TrillionG run path (Section 5, Figure 6): :func:`generate` cuts a
graph's vertex range and scatters the ranges to files — the equivalent
of the paper's Spark driver program, one machine being the case of one
range.
"""

from __future__ import annotations

import os
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from .core.generator import Recipe, RecursiveVectorGenerator
from .errors import ConfigurationError
from .telemetry import build_report, reset_telemetry, span, worker_reports

if TYPE_CHECKING:
    from .dist.faults import RetryPolicy
    from .dist.runner import ClusterSpec, DistributedResult

__all__ = ["generate", "TrillionG"]


def generate(recipe: Recipe | RecursiveVectorGenerator, out: Path | str,
             fmt: str = "adj6", *, workers: int = 1,
             processes: int | None = None,
             retry: RetryPolicy | None = None, resume: bool = False,
             blocks_per_chunk: int | None = None,
             progress: Callable[[int], None] | None = None
             ) -> DistributedResult:
    """Generate ``recipe``'s graph (a ``Recipe``, or a generator built
    from one) to disk: cut its vertex range, then scatter the ranges
    (:func:`repro.dist.runner.scatter`), each to a file published whole:

    - one range, the file ``out``, by default;
    - with ``workers > 1``, the Figure 6 partition, one
      ``part-NNNN.<fmt>`` per worker in the directory ``out``;
    - with ``resume``, the chunks of ``blocks_per_chunk`` blocks (16 by
      default) of the directory ``out`` that no earlier run completed;
      re-invoke a killed run, and the output is bit-identical.

    At most ``processes`` (no more than ``workers``) worker processes
    run at once, by default one per worker and range and at most one
    per CPU, each attempt under
    ``retry``; with one, the ranges are written in this process.
    ``progress`` gets the edges done when the run starts (with
    ``resume``, the earlier chunks'; else 0), then the running total:
    per block written in this process, per range from a worker process,
    per chunk with ``resume``.  ``telemetry`` on the result covers this
    call only.  A setting the run would ignore (``retry`` with one
    worker, ``blocks_per_chunk`` without ``resume``) raises
    :class:`~repro.errors.ConfigurationError` before anything is written.
    """
    from .dist.checkpoint import CheckpointedRun
    from .dist.partition import range_partition
    from .dist.runner import WorkerResult, scatter
    if retry is not None and workers <= 1:
        raise ConfigurationError(
            "retry acts only with more than one worker: a sequential run "
            "has no worker to retry")
    if blocks_per_chunk is not None and not resume:
        raise ConfigurationError(
            "blocks_per_chunk acts only with resume=True")
    generator = recipe.build() if isinstance(recipe, Recipe) else recipe
    out = Path(out)
    reset_telemetry()
    with span("generate", scale=generator.scale, fmt=fmt) as sp:
        done: list[WorkerResult] = []   # chunks an earlier run completed
        partition_seconds = 0.0
        if resume:
            run = CheckpointedRun(
                generator, out, fmt,
                16 if blocks_per_chunk is None else blocks_per_chunk)
            out_dir, jobs, done = out, run.jobs(), run.done()
        elif workers > 1:
            with span("partition", workers=workers) as part:
                ranges = range_partition(generator, workers)
            partition_seconds = part.seconds
            out_dir = out
            jobs = [(w, r.start, r.stop, f"part-{w:04d}.{fmt}")
                    for w, r in enumerate(ranges)]
        else:
            out_dir, jobs = out.parent, [(0, 0, generator.num_vertices,
                                          out.name)]
        edges = sum(chunk.num_edges for chunk in done)

        def count(more: int) -> None:
            nonlocal edges
            edges += more
            if progress is not None:
                progress(edges)

        def record(position: int, chunk: WorkerResult) -> None:
            run.record(chunk)
            count(chunk.num_edges)

        count(0)
        pool = (min(workers, len(jobs), os.cpu_count() or 1)
                if processes is None else min(processes, workers))
        result = scatter(generator, out_dir, jobs, fmt, pool, retry,
                         on_result=record if resume else None,
                         on_edges=None if resume else count)
    result.workers = sorted([*done, *result.workers],
                            key=attrgetter("start"))
    result.partition_seconds = partition_seconds
    result.elapsed_seconds = sp.seconds
    # Worker processes' verbatim snapshots too: one trace track each.
    reports = worker_reports()
    result.telemetry = build_report({"worker_reports": list(reports)}
                                    if reports else None)
    return result


class TrillionG:
    """A generator and the machines x threads ``cluster`` that
    :meth:`generate_to` runs it over.

    Examples
    --------
    >>> from repro import TrillionG
    >>> tg = TrillionG(scale=12, edge_factor=16, seed=7)
    >>> result = tg.generate_to("graph.adj6", fmt="adj6")  # doctest: +SKIP

    Takes :class:`~repro.core.generator.Recipe`'s parameters, which build
    ``generator``, and the ``retry`` policy of the cluster's workers.
    """

    def __init__(self, *args, cluster: ClusterSpec | None = None,
                 retry: RetryPolicy | None = None, **settings) -> None:
        self.generator = Recipe(*args, **settings).build()
        self.cluster = cluster
        self.retry = retry

    def generate_to(self, path: Path | str, fmt: str = "adj6",
                    processes: int | None = None, *,
                    resume: bool = False,
                    blocks_per_chunk: int | None = None,
                    progress: Callable[[int], None] | None = None
                    ) -> DistributedResult:
        """:func:`generate` of ``generator`` over the cluster's workers
        (one without a cluster)."""
        workers = 1 if self.cluster is None else self.cluster.num_workers
        return generate(self.generator, path, fmt, workers=workers,
                        processes=processes, retry=self.retry,
                        resume=resume, blocks_per_chunk=blocks_per_chunk,
                        progress=progress)
