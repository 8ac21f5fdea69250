#!/usr/bin/env python
"""Distributed generation with the Figure 6 range partitioner.

Partitions the vertex range so each worker of a local "cluster" (worker
processes standing in for the paper's machines x threads) gets ~|E|/P
edges, generates the part files in parallel with ``repro.generate``, and
verifies that they concatenate to the file a sequential run of the same
recipe writes — the determinism property TrillionG's AVS-level
partitioning is designed around.

Run:  python examples/distributed_generation.py
"""

import tempfile
from pathlib import Path

from repro import Recipe, generate
from repro.dist import range_partition


def main() -> None:
    recipe = Recipe(scale=14, edge_factor=16, seed=99, block_size=128)
    workers = 4
    print(f"Cluster: {workers} workers")

    print("\nStep 1-3 (one bin per block, cut into equal-mass ranges):")
    for i, r in enumerate(range_partition(recipe.build(), workers)):
        print(f"  worker {i}: vertices [{r.start:>6}, {r.stop:>6})  "
              f"~{int(r.mass):,} edges")

    with tempfile.TemporaryDirectory() as tmp:
        print("\nStep 4 (scatter) + generation:")
        result = generate(recipe, Path(tmp) / "parts", workers=workers)
        for w in result.workers:
            print(f"  worker {w.worker}: {w.num_edges:,} edges in "
                  f"{w.elapsed_seconds:.2f}s -> {Path(w.path).name}")
        print(f"  total: {result.num_edges:,} edges, "
              f"load skew {result.skew:.3f} "
              f"(1.0 = perfectly balanced)")

        print("\nVerification against a sequential run:")
        sequential = generate(recipe, Path(tmp) / "graph.adj6")
        identical = (b"".join(p.read_bytes() for p in result.paths)
                     == sequential.paths[0].read_bytes())
        print(f"  parts == sequential file, byte for byte: {identical}")
        assert identical


if __name__ == "__main__":
    main()
