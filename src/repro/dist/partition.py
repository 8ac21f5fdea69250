"""AVS-level range partitioning — Figure 6's combine/gather/repartition/
scatter pipeline.

TrillionG avoids WES/p's shuffle skew by partitioning *scopes* (source
vertices), not edges, before generation: every worker receives a contiguous
vertex range whose edge mass is ~|E|/P.  The four steps:

1. **combine** — every randomness block becomes one bin whose mass is
   the block's edge total, read off its root path;
2. **gather** — bin summaries (start, stop, mass — tiny metadata, not
   edges) reach the master; here they are already in one process;
3. **repartition** — the master re-cuts the bins into exactly ``p``
   contiguous ranges of nearly equal mass;
4. **scatter** — each worker receives its range and generates it.

Ranges are aligned to the generator's randomness blocks so that the
partitioned run reproduces the exact same graph as a sequential run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.generator import RecursiveVectorGenerator

__all__ = ["Bin", "repartition", "range_partition"]


@dataclass(frozen=True)
class Bin:
    """A contiguous vertex range with its (expected) edge mass."""

    start: int
    stop: int
    mass: float

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError("empty bin")


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
    size = generator.block_size
    # Steps 1-2: one bin per block of the grid (the last one ends at |V|).
    bins = [Bin(start, min(start + size, n),
                float(generator.block_total(start // size)))
            for start in range(0, n, size)]
    # Step 3: repartition on the master.  Step 4 (scatter) is the caller
    # handing the ranges to workers.
    return repartition(bins, num_workers)
