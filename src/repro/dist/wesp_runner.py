"""WES/p (RMAT/p) on real OS processes with a file-based shuffle.

:mod:`repro.models.wesp` executes the merge-based dataflow inside one
process; this module runs it the way the paper's cluster did — parallel
generators, a shuffle, and parallel mergers — with worker processes and
the shuffle materialized as partition files (the MapReduce pattern):

1. **map**: each generator process runs its worker's WES map task
   (:func:`repro.models.rmat.map_task`) and hash-partitions each sorted
   duplicate-free batch into one already-sorted run per reducer;
2. **shuffle**: the run files *are* the shuffle (local disk stands in for
   the wire);
3. **reduce**: each merger process external-sorts its incoming runs in
   one partitioned pass, dropping duplicates, and writes its final part
   file.

The output edge set is identical to
:class:`repro.models.wesp.WespMemGenerator` with the same configuration
(tests assert this), so the in-process model and the multiprocess runner
validate each other.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from ..atomic import atomic_write
from ..core.seed import SeedMatrix
from ..telemetry import span
from ..formats import blocks_from_sorted_keys, get_format
from ..models.rmat import PathSampler, map_task
from ..models.wesp import worker_task
from ..util.external_sort import iter_unique_keys, write_run
from ..util.shuffle import hash_partition, partition_skew
from .faults import RetryPolicy, pick_start_method, run_tasks

__all__ = ["WespDistributedResult", "run_wesp_distributed"]


@dataclass
class WespDistributedResult:
    """Outcome of a distributed WES/p run."""

    part_paths: list[Path] = field(default_factory=list)
    num_edges: int = 0
    generate_seconds: float = 0.0
    merge_seconds: float = 0.0
    partition_sizes: list[int] = field(default_factory=list)

    @property
    def skew(self) -> float:
        return partition_skew(self.partition_sizes)


def _map_task(args: tuple) -> list[list[str]]:
    """Generator process: this worker's runs, per reducer one per batch."""
    (worker, scale, num_edges, seed_entries, seed, num_workers, epsilon,
     shuffle_dir) = args
    sampler = PathSampler(SeedMatrix(np.array(seed_entries)), scale)
    task = worker_task(seed, worker, num_edges, num_workers, epsilon)
    runs: list[list[str]] = [[] for _ in range(num_workers)]
    for batch_no, keys in enumerate(map_task(sampler, *task)):
        for reducer, part in enumerate(hash_partition(keys, num_workers)):
            path = Path(shuffle_dir) / (
                f"map{worker:03d}-b{batch_no:05d}-red{reducer:03d}.run")
            runs[reducer].append(str(write_run(part, path)))
    return runs


def _write_npy_stream(chunks: Iterable[np.ndarray], path: Path,
                      num_vertices: int) -> int:
    """Stream sorted key chunks into a ``.npy`` ``(m, 2)`` edge array.

    ``np.save`` needs the row count up front, so the unpacked edge rows
    stream into a payload temporary first; once the count is known the
    header plus payload are published by
    :func:`~repro.atomic.atomic_write`, copying in bounded chunks.  Peak
    memory stays one chunk.  Returns the number of edges written.
    """
    n = np.int64(num_vertices)
    payload = path.with_name(f"{path.name}.payload.{os.getpid()}")
    count = 0
    try:
        with open(payload, "wb") as body:
            for keys in chunks:
                edges = np.ascontiguousarray(
                    np.column_stack([keys // n, keys % n]))
                body.write(memoryview(edges))
                count += int(keys.size)
        with atomic_write(path) as tmp, open(tmp, "wb") as out:
            np.lib.format.write_array_header_1_0(
                out, {"descr": "<i8", "fortran_order": False,
                      "shape": (count, 2)})
            with open(payload, "rb") as body:
                shutil.copyfileobj(body, out, 1 << 20)
    finally:
        payload.unlink(missing_ok=True)
    return count


def _reduce_task(args: tuple) -> tuple[str, int]:
    """Merger process: external-sort this reducer's runs into a part.

    The sort is the bounded-RAM one-pass engine
    (:func:`repro.util.external_sort.iter_unique_keys`); it writes
    nothing but the part, so a reducer retried by the fault-tolerant
    scheduler simply reads its map runs again.

    With ``fmt_name`` set the stream feeds the block-streaming format
    writers directly (sources never split across blocks); with ``None``
    the historical ``.npy`` edge-array part is streamed via
    :func:`_write_npy_stream`.  Either way the reducer never holds the
    merged edge set.
    """
    reducer, run_paths, out_dir, fmt_name, scale = args
    num_vertices = 1 << scale
    stream_chunks = iter_unique_keys([Path(p) for p in run_paths])
    if fmt_name is None:
        part_path = Path(out_dir) / f"part-{reducer:04d}.npy"
        count = _write_npy_stream(stream_chunks, part_path, num_vertices)
    else:
        fmt = get_format(fmt_name)
        part_path = Path(out_dir) / f"part-{reducer:04d}.{fmt_name}"
        result = fmt.write_blocks(
            part_path, blocks_from_sorted_keys(stream_chunks, num_vertices),
            num_vertices)
        count = result.num_edges
    return str(part_path), int(count)


def run_wesp_distributed(scale: int, edge_factor: int = 16,
                         seed_matrix: SeedMatrix | None = None, *,
                         num_edges: int | None = None,
                         num_workers: int = 4, epsilon: float = 0.01,
                         seed: int = 0, work_dir: Path | str,
                         processes: int | None = None,
                         retry: RetryPolicy | None = None,
                         fmt_name: str | None = None
                         ) -> WespDistributedResult:
    """Run the full WES/p dataflow across worker processes.

    ``work_dir`` receives the shuffle runs and the final part files:
    ``part-*.npy`` int64 edge arrays by default, or graph-format parts
    written through the block-streaming path when ``fmt_name`` names a
    registered format (``"adj6"``/``"csr6"``/``"tsv"``).  Both phases run
    under the fault-tolerant scheduler
    (:func:`repro.dist.faults.run_tasks`), so the baseline enjoys the
    same retry/timeout supervision as the AVS scatter.
    """
    from ..core.seed import GRAPH500
    seed_matrix = seed_matrix if seed_matrix is not None else GRAPH500
    num_vertices = 1 << scale
    if num_edges is None:
        num_edges = edge_factor * num_vertices
    work_dir = Path(work_dir)
    shuffle_dir = work_dir / "shuffle"
    shuffle_dir.mkdir(parents=True, exist_ok=True)

    result = WespDistributedResult()
    pool_size = processes if processes is not None \
        else min(num_workers, mp.cpu_count())
    ctx = mp.get_context(pick_start_method())
    map_args = [
        (w, scale, num_edges, seed_matrix.entries.tolist(), seed,
         num_workers, epsilon, str(shuffle_dir))
        for w in range(num_workers)
    ]
    with span("wesp.map", workers=num_workers) as sp:
        map_outputs, _ = run_tasks(map_args, _map_task,
                                   pool_size=pool_size, policy=retry,
                                   mp_context=ctx)
    result.generate_seconds = sp.seconds

    # Group runs by reducer.
    reduce_args = []
    for reducer in range(num_workers):
        runs = [path for paths in map_outputs for path in paths[reducer]]
        reduce_args.append((reducer, runs, str(work_dir), fmt_name, scale))
    with span("wesp.reduce", workers=num_workers) as sp:
        reduce_outputs, _ = run_tasks(reduce_args, _reduce_task,
                                      pool_size=pool_size, policy=retry,
                                      mp_context=ctx)
    result.merge_seconds = sp.seconds

    for path, count in reduce_outputs:
        result.part_paths.append(Path(path))
        result.partition_sizes.append(count)
        result.num_edges += count
    return result
