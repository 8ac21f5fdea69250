"""AVS-level range partitioning — Figure 6's combine/gather/repartition/
scatter pipeline.

TrillionG avoids WES/p's shuffle skew by partitioning *scopes* (source
vertices), not edges, before generation: every worker receives a contiguous
vertex range whose expected edge mass is ~|E|/P.  The four steps:

1. **combine** — each worker takes an equal slice of the vertex range,
   reads its blocks' edge totals, and combines consecutive blocks into
   bins of roughly ``|E|/p`` edges;
2. **gather** — bin summaries (start, stop, mass — tiny metadata, not
   edges) travel to the master;
3. **repartition** — the master re-cuts the concatenated bins into exactly
   ``p`` contiguous ranges of nearly equal mass;
4. **scatter** — each worker receives its range and generates it.

Ranges are aligned to the generator's randomness blocks so that the
partitioned run reproduces the exact same graph as a sequential run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.generator import RecursiveVectorGenerator

__all__ = ["Bin", "combine", "repartition", "range_partition"]


@dataclass(frozen=True)
class Bin:
    """A contiguous vertex range with its (expected) edge mass."""

    start: int
    stop: int
    mass: float

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError("empty bin")


def combine(block_masses: np.ndarray, block_size: int, start_vertex: int,
            target_mass: float) -> list[Bin]:
    """Combine consecutive blocks into bins of ~``target_mass`` edges.

    ``block_masses[i]`` is the edge mass of the block starting at
    ``start_vertex + i * block_size``.  The final bin is usually lighter,
    as the paper notes.
    """
    bins: list[Bin] = []
    acc = 0.0
    bin_start = start_vertex
    cursor = start_vertex
    for mass in block_masses:
        acc += float(mass)
        cursor += block_size
        if acc >= target_mass:
            bins.append(Bin(bin_start, cursor, acc))
            bin_start = cursor
            acc = 0.0
    if cursor > bin_start:
        bins.append(Bin(bin_start, cursor, acc))
    return bins


def repartition(bins: list[Bin], num_workers: int) -> list[Bin]:
    """Master-side re-cut of gathered bins into ``num_workers`` contiguous
    ranges of nearly equal mass (bins are atomic units, so the cut is at
    bin granularity: on whichever side of the bin that crosses the target
    leaves the range nearer to it)."""
    if not bins:
        raise ValueError("no bins to repartition")
    remaining = sum(b.mass for b in bins)
    out: list[Bin] = []
    acc = 0.0
    start = bins[0].start
    for b in bins:
        # Adaptive target: spread what is left evenly over the workers
        # still unassigned, so an oversized early bin (the hub) does not
        # starve the tail ranges.
        workers_left = num_workers - len(out)
        target = remaining / workers_left
        if (workers_left > 1 and acc > 0
                and acc + b.mass - target > target - acc):
            # Stopping short of ``b`` misses the target by less than
            # taking it would overshoot.
            out.append(Bin(start, b.start, acc))
            remaining -= acc
            start = b.start
            acc = 0.0
            workers_left -= 1
            target = remaining / workers_left
        acc += b.mass
        if workers_left > 1 and acc >= target:
            out.append(Bin(start, b.stop, acc))
            remaining -= acc
            start = b.stop
            acc = 0.0
    if start < bins[-1].stop:
        out.append(Bin(start, bins[-1].stop, acc))
    return out


def range_partition(generator: RecursiveVectorGenerator,
                    num_workers: int) -> list[Bin]:
    """Run the full Figure 6 pipeline for an AVS generator.

    Returns ``<= num_workers`` block-aligned vertex ranges whose realized
    edge masses are nearly equal.  A block's mass is the generator's own
    :meth:`~repro.core.generator.RecursiveVectorGenerator.block_total`
    (deterministic per block; under the default ``split`` sizes a few
    draws down the block's root path, not a draw per scope), so the
    partition is exact with respect to the graph that will actually be
    generated, up to scopes capped at ``|V|``.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    n = generator.num_vertices
    block_size = generator.block_size
    num_blocks = (n + block_size - 1) // block_size
    total_edges = generator.num_edges
    # Step 1: combine, with each logical worker scanning an equal slice of
    # the block grid.
    blocks_per_worker = max(num_blocks // num_workers, 1)
    all_bins: list[Bin] = []
    # Bins 8x finer than the final per-worker target give the master enough
    # granularity to cut balanced ranges (bins stay atomic in step 3).
    bin_target = total_edges / num_workers / 8
    for w_start in range(0, num_blocks, blocks_per_worker):
        w_stop = min(w_start + blocks_per_worker, num_blocks)
        masses = np.array([float(generator.block_total(b))
                           for b in range(w_start, w_stop)])
        # Step 2 (gather) is implicit: bins are tiny metadata.
        all_bins.extend(combine(masses, block_size,
                                w_start * block_size, bin_target))
    # Fix the final bin of the grid to end exactly at |V|.
    last = all_bins[-1]
    if last.stop > n:
        all_bins[-1] = Bin(last.start, n, last.mass)
    # Step 3: repartition on the master.
    ranges = repartition(all_bins, num_workers)
    # Step 4 (scatter) is the caller handing ranges to workers.
    return ranges
