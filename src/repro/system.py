"""The TrillionG system facade (Section 5): one entry point that wires the
recursive vector engine, the Figure 6 partitioner, and the output formats
together — the equivalent of the paper's Spark driver program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from .core.generator import AdjacencyBlock, Recipe
from .errors import ConfigurationError
from .formats import WriteResult, get_format
from .telemetry import build_report, reset_telemetry, span, worker_reports

if TYPE_CHECKING:
    from .dist.faults import RetryPolicy
    from .dist.runner import ClusterSpec

__all__ = ["TrillionG", "TrillionGResult"]


@dataclass
class TrillionGResult:
    """Outcome of a TrillionG run.

    ``encode_seconds``/``write_seconds`` break the output cost into
    format encoding vs. ``file.write`` wall time (summed across workers
    for distributed runs; the two overlap, the write runs on the
    pipeline's background thread).
    ``telemetry`` holds the full metrics + span report for the run
    (:func:`repro.telemetry.build_report`).
    """

    paths: list[Path]
    num_vertices: int
    num_edges: int
    bytes_written: int
    elapsed_seconds: float
    skew: float = 1.0
    encode_seconds: float = 0.0
    write_seconds: float = 0.0
    telemetry: dict = field(default_factory=dict)

    @property
    def edges_per_second(self) -> float:
        """End-to-end edge throughput (0 when untimed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.num_edges / self.elapsed_seconds

    @property
    def bytes_per_second(self) -> float:
        """End-to-end byte throughput (0 when untimed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.bytes_written / self.elapsed_seconds


class TrillionG:
    """End-to-end synthetic graph generation to disk.

    Examples
    --------
    >>> from repro import TrillionG
    >>> tg = TrillionG(scale=12, edge_factor=16, seed=7)
    >>> result = tg.generate_to("graph.adj6", fmt="adj6")  # doctest: +SKIP

    Takes :class:`~repro.core.generator.Recipe`'s parameters, which build
    ``generator``, and a machines x threads ``cluster`` shape for parallel
    generation, whose workers ``retry`` governs.
    """

    def __init__(self, *args, cluster: ClusterSpec | None = None,
                 retry: RetryPolicy | None = None, **settings) -> None:
        if retry is not None and cluster is None:
            raise ConfigurationError(
                "retry acts only with a cluster: a sequential run has "
                "no worker to retry")
        self.generator = Recipe(*args, **settings).build()
        self.cluster = cluster
        self.retry = retry

    def generate_to(self, path: Path | str, fmt: str = "adj6",
                    processes: int | None = None, *,
                    resume: bool = False,
                    blocks_per_chunk: int | None = None,
                    progress: Callable[[int], None] | None = None
                    ) -> TrillionGResult:
        """Generate to disk.

        Without a cluster, writes one file sequentially.  With a cluster,
        runs the Figure 6 partitioner and writes one part file per worker
        into the directory ``path``.  With ``resume=True``, generation is
        checkpointed into the directory ``path`` (one chunk file per
        ``blocks_per_chunk`` blocks, 16 by default, plus a manifest) and a
        killed run can simply be re-invoked: only missing chunks are
        regenerated, and the final output is bit-identical either way.
        ``blocks_per_chunk`` without ``resume`` raises
        :class:`~repro.errors.ConfigurationError`.

        ``progress`` is called once with the edges done when the run
        starts (with ``resume``, those of the chunks an earlier run
        completed; else 0), then with the cumulative edge count as work
        lands (per block sequentially, per worker result distributed,
        per chunk with ``resume``) — pass a
        :class:`repro.telemetry.ProgressReporter` for a live terminal
        line, whose rate counts only the edges since the first call.

        ``telemetry`` on the result covers this call only: the
        process-wide metrics, span tree and worker reports are cleared
        on entry, so a second run in the same process does not report
        the first run's work.
        """
        if blocks_per_chunk is not None and not resume:
            raise ConfigurationError(
                "blocks_per_chunk acts only with resume=True")
        reset_telemetry()
        num_vertices = self.generator.num_vertices
        if resume:
            from .dist.checkpoint import CheckpointedRun
            from .dist.runner import worker_processes
            with span("generate", scale=self.generator.scale, fmt=fmt,
                      resume=True) as sp:
                run = CheckpointedRun(
                    self.generator, path, fmt,
                    16 if blocks_per_chunk is None else blocks_per_chunk)
                processes = 1 if self.cluster is None else worker_processes(
                    processes, len(run.pending()), self.cluster.num_workers)
                run.run(processes, retry=self.retry, progress=progress)
            paths = run.chunk_paths()
            return TrillionGResult(paths, num_vertices, run.num_edges,
                                   sum(p.stat().st_size for p in paths),
                                   sp.seconds, telemetry=self._report())
        if self.cluster is None:
            with span("generate", scale=self.generator.scale,
                      fmt=fmt) as sp:
                writer = get_format(fmt)
                result: WriteResult = writer.write_blocks(
                    path, self._blocks_with_progress(progress),
                    num_vertices)
            return TrillionGResult([Path(path)], num_vertices,
                                   result.num_edges, result.bytes_written,
                                   sp.seconds,
                                   encode_seconds=result.encode_seconds,
                                   write_seconds=result.write_seconds,
                                   telemetry=self._report())
        from .dist.runner import LocalCluster
        with span("generate", scale=self.generator.scale, fmt=fmt):
            runner = LocalCluster(self.cluster)
            dist = runner.generate_to_files(
                self.generator, path, fmt, processes=processes,
                retry=self.retry, progress=progress)
        total_bytes = sum(p.stat().st_size for p in dist.paths)
        return TrillionGResult(dist.paths, num_vertices,
                               dist.num_edges, total_bytes,
                               dist.elapsed_seconds, dist.skew,
                               encode_seconds=dist.encode_seconds,
                               write_seconds=dist.write_seconds,
                               telemetry=self._report())

    def _blocks_with_progress(
            self, progress: Callable[[int], None] | None
    ) -> Iterator[AdjacencyBlock]:
        """Yield blocks, reporting 0 first, then the cumulative edge
        count per block.  A block is let go once the consumer resumes."""
        done = 0
        if progress is not None:
            progress(done)
        for block in self.generator.iter_blocks():
            done += block.num_edges
            yield block
            del block
            if progress is not None:
                progress(done)

    @staticmethod
    def _report() -> dict:
        """Snapshot the telemetry report.

        Distributed runs also carry the verbatim per-worker snapshots
        (``worker_reports``) so trace export can draw one track per
        worker instead of only the merged aggregate.
        """
        reports = worker_reports()
        extra = {"worker_reports": list(reports)} if reports else None
        return build_report(extra)
