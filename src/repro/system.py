"""The TrillionG system facade (Section 5): one entry point that wires the
recursive vector engine, the Figure 6 partitioner, and the output formats
together — the equivalent of the paper's Spark driver program.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .core.generator import (AdjacencyBlock, IdeaToggles,
                             RecursiveVectorGenerator)
from .core.seed import GRAPH500, SeedMatrix
from .formats import WriteResult, get_format
from .telemetry import (build_report, reset_telemetry, span,
                        telemetry_enabled, worker_reports)

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
    (:func:`repro.telemetry.build_report`), or ``None`` when telemetry is
    disabled via ``TRILLIONG_TELEMETRY=0``.
    """

    paths: list[Path]
    num_vertices: int
    num_edges: int
    bytes_written: int
    elapsed_seconds: float
    skew: float = 1.0
    encode_seconds: float = 0.0
    write_seconds: float = 0.0
    telemetry: dict | None = None

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

    Parameters mirror the paper's configuration surface: Graph500 standard
    workload by default, optional NSKG noise, ``engine`` (``"bitwise"``,
    the production kernel, or the ``"reference"`` oracle), and a machines x
    threads cluster shape for parallel generation.
    """

    def __init__(self, scale: int, edge_factor: int = 16,
                 seed_matrix: SeedMatrix | None = None, *,
                 num_edges: int | None = None,
                 noise: float = 0.0,
                 engine: str = "bitwise",
                 ideas: IdeaToggles | None = None,
                 seed: int = 0,
                 block_size: int = 4096,
                 cluster: ClusterSpec | None = None,
                 retry: RetryPolicy | None = None) -> None:
        self.generator = RecursiveVectorGenerator(
            scale, edge_factor,
            seed_matrix if seed_matrix is not None else GRAPH500,
            num_edges=num_edges, noise=noise, engine=engine,
            ideas=ideas, seed=seed, block_size=block_size)
        self.cluster = cluster
        self.retry = retry

    @property
    def num_vertices(self) -> int:
        return self.generator.num_vertices

    @property
    def num_edges(self) -> int:
        return self.generator.num_edges

    def generate_edges(self) -> np.ndarray:
        """Materialize the whole graph in memory (small scales only)."""
        return self.generator.edges()

    def generate_to(self, path: Path | str, fmt: str = "adj6",
                    processes: int | None = None, *,
                    resume: bool = False,
                    blocks_per_chunk: int = 16,
                    progress: Callable[[int], None] | None = None
                    ) -> TrillionGResult:
        """Generate to disk.

        Without a cluster, writes one file sequentially.  With a cluster,
        runs the Figure 6 partitioner and writes one part file per worker
        into the directory ``path``.  With ``resume=True``, generation is
        checkpointed into the directory ``path`` (one chunk file per
        ``blocks_per_chunk`` blocks plus a manifest) and a killed run can
        simply be re-invoked: only missing chunks are regenerated, and
        the final output is bit-identical either way.

        ``progress`` is called with the cumulative edge count as work
        lands (per block sequentially, per worker result distributed) —
        pass a :class:`repro.telemetry.ProgressReporter` for a live
        terminal line.

        ``telemetry`` on the result covers this call only: the
        process-wide metrics, span tree and worker reports are cleared
        on entry, so a second run in the same process does not report
        the first run's work.
        """
        reset_telemetry()
        if resume:
            return self._generate_resumable(path, fmt, processes,
                                            blocks_per_chunk, progress)
        if self.cluster is None:
            with span("generate", scale=self.generator.scale,
                      fmt=fmt) as sp:
                writer = get_format(fmt)
                result: WriteResult = writer.write_blocks(
                    path, self._blocks_with_progress(progress),
                    self.num_vertices)
            return TrillionGResult([Path(path)], self.num_vertices,
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
        return TrillionGResult(dist.paths, self.num_vertices,
                               dist.num_edges, total_bytes,
                               dist.elapsed_seconds, dist.skew,
                               encode_seconds=dist.encode_seconds,
                               write_seconds=dist.write_seconds,
                               telemetry=self._report())

    def _generate_resumable(self, path: Path | str, fmt: str,
                            processes: int | None,
                            blocks_per_chunk: int,
                            progress: Callable[[int], None] | None
                            ) -> TrillionGResult:
        """Checkpointed generation: sequential without a cluster, the
        supervised parallel scatter with one."""
        if self.cluster is None:
            from .dist.checkpoint import CheckpointedRun
            with span("generate", scale=self.generator.scale,
                      fmt=fmt, resume=True) as sp:
                run = CheckpointedRun(self.generator, path, fmt,
                                      blocks_per_chunk)
                run.run()
                if progress is not None:
                    progress(run.num_edges)
            paths = run.chunk_paths()
            return TrillionGResult(paths, self.num_vertices,
                                   run.num_edges,
                                   sum(p.stat().st_size for p in paths),
                                   sp.seconds,
                                   telemetry=self._report())
        from .dist.runner import LocalCluster
        with span("generate", scale=self.generator.scale, fmt=fmt,
                  resume=True):
            runner = LocalCluster(self.cluster)
            dist = runner.generate_checkpointed(
                self.generator, path, fmt, blocks_per_chunk,
                processes=processes, retry=self.retry,
                progress=progress)
        run = dist.checkpoint
        assert run is not None
        paths = run.chunk_paths()
        return TrillionGResult(paths, self.num_vertices, run.num_edges,
                               sum(p.stat().st_size for p in paths),
                               dist.elapsed_seconds, dist.skew,
                               telemetry=self._report())

    def _blocks_with_progress(
            self, progress: Callable[[int], None] | None
    ) -> Iterator[AdjacencyBlock]:
        """Yield blocks, reporting the cumulative edge count per block."""
        done = 0
        for block in self.generator.iter_blocks():
            yield block
            if progress is not None:
                done += block.num_edges
                progress(done)

    @staticmethod
    def _report() -> dict | None:
        """Snapshot the telemetry report, or ``None`` when disabled.

        Distributed runs also carry the verbatim per-worker snapshots
        (``worker_reports``) so trace export can draw one track per
        worker instead of only the merged aggregate.
        """
        if not telemetry_enabled():
            return None
        reports = worker_reports()
        extra = {"worker_reports": list(reports)} if reports else None
        return build_report(extra)
