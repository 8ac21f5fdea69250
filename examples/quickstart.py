#!/usr/bin/env python
"""Quickstart: generate a synthetic graph and inspect its properties.

Generates a Graph500-standard graph (scale 14, edge factor 16) with the
recursive vector model, verifies the paper's headline properties (power-law
degrees, Lemma 6 slope, no repeated edges), and writes it in all three
output formats.

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import GRAPH500, RecursiveVectorGenerator
from repro.analysis import (degree_histogram, fit_kronecker_class_slope,
                            graph_stats, out_degrees)
from repro.formats import get_format


def main() -> None:
    scale = 14
    generator = RecursiveVectorGenerator(scale=scale, edge_factor=16,
                                         seed=42)
    print(f"Generating |V| = 2^{scale} = {generator.num_vertices:,}, "
          f"target |E| = {generator.num_edges:,} ...")
    edges = generator.edges()

    stats = graph_stats(edges, generator.num_vertices)
    print(f"\nGraph statistics: {stats}")
    assert stats.is_simple, "the recursive vector model deduplicates"

    # The paper's realism claim: a power-law (Zipfian) degree distribution
    # whose slope is dictated by the seed matrix (Lemma 6).
    degrees = out_degrees(edges, generator.num_vertices)
    slope = fit_kronecker_class_slope(degrees)
    print(f"\nMeasured Zipf class slope: {slope:.3f} "
          f"(Lemma 6 predicts {GRAPH500.out_zipf_slope():.3f})")

    hist = degree_histogram(degrees)
    print("\nDegree distribution (head):")
    print("degree  #vertices")
    for d, c in list(zip(hist.degrees, hist.counts))[:10]:
        print(f"{d:6d}  {c}")

    # Write all three formats and compare sizes (Section 5).
    with tempfile.TemporaryDirectory() as tmp:
        print("\nOutput formats:")
        for name in ("tsv", "adj6", "csr6"):
            fmt = get_format(name)
            result = fmt.write_blocks(Path(tmp) / f"graph.{name}",
                                      generator.iter_blocks(),
                                      generator.num_vertices)
            print(f"  {name:5s}: {result.bytes_written:>10,} bytes "
                  f"({result.num_edges:,} edges)")

    print("\nDone.")


if __name__ == "__main__":
    main()
