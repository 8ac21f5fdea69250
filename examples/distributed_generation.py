#!/usr/bin/env python
"""Distributed generation with the Figure 6 range partitioner.

Spins up a local "cluster" (worker processes standing in for the paper's
machines x threads), partitions the vertex range so each worker gets
~|E|/P edges, generates part files in parallel, and verifies that the
distributed output is bit-identical to a sequential run — the determinism
property TrillionG's AVS-level partitioning is designed around.

Run:  python examples/distributed_generation.py
"""

import tempfile

import numpy as np

from repro import RecursiveVectorGenerator
from repro.dist import ClusterSpec, LocalCluster, range_partition


def main() -> None:
    scale = 14
    generator = RecursiveVectorGenerator(scale=scale, edge_factor=16,
                                         seed=99, block_size=128)
    spec = ClusterSpec(machines=2, threads_per_machine=2)
    print(f"Cluster: {spec.machines} machines x "
          f"{spec.threads_per_machine} threads = {spec.num_workers} "
          "workers")

    print("\nStep 1-3 (one bin per block, cut into equal-mass ranges):")
    ranges = range_partition(generator, spec.num_workers)
    for i, r in enumerate(ranges):
        print(f"  worker {i}: vertices [{r.start:>6}, {r.stop:>6})  "
              f"~{int(r.mass):,} edges")

    with tempfile.TemporaryDirectory() as tmp:
        print("\nStep 4 (scatter) + generation:")
        cluster = LocalCluster(spec)
        result = cluster.generate_to_files(generator, tmp, "adj6")
        for w in result.workers:
            print(f"  worker {w.worker}: {w.num_edges:,} edges in "
                  f"{w.elapsed_seconds:.2f}s -> {w.path.split('/')[-1]}")
        print(f"  total: {result.num_edges:,} edges, "
              f"load skew {result.skew:.3f} "
              f"(1.0 = perfectly balanced)")

        print("\nVerification against a sequential run:")
        dist_edges = cluster.read_all_edges(result)
        seq_edges = RecursiveVectorGenerator(
            scale=scale, edge_factor=16, seed=99, block_size=128).edges()
        order = np.lexsort((dist_edges[:, 1], dist_edges[:, 0]))
        seq_order = np.lexsort((seq_edges[:, 1], seq_edges[:, 0]))
        identical = np.array_equal(dist_edges[order], seq_edges[seq_order])
        print(f"  distributed == sequential: {identical}")
        assert identical


if __name__ == "__main__":
    main()
