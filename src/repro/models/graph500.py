"""Graph500-style generator — Appendix D's comparison target.

The Graph500 reference generator (a) follows the noisy SKG (NSKG) process,
(b) *scrambles* vertex IDs with a perfect hash so consecutive IDs do not
share degree structure (avoiding the workload skew RMAT/p suffers), and
(c) hands the edge list to a CSR-like *construction* step whose shuffle and
conversion dominate its runtime at scale (>90% per Figure 14(b)).

This model reproduces all three stages with separate phase timings so the
Figure 14(b) construction-overhead ratio is measurable.  It is in-memory
only, like the benchmark ("inherently an in-memory framework"), so it is
subject to the memory budget and OOMs past ~scale 30 on the paper's
hardware.
"""

from __future__ import annotations

import numpy as np

from ..analysis.traversal import build_csr
from .avs import TrillionGSeqGenerator
from .base import BYTES_PER_EDGE_IN_MEMORY, Complexity

__all__ = ["Graph500Generator", "scramble_vertices"]


def scramble_vertices(vertices: np.ndarray, scale: int,
                      salt: int = 0x5851F42D) -> np.ndarray:
    """Bijective pseudo-random relabelling of vertex IDs on
    ``[0, 2**scale)``.

    Graph500 scrambles IDs via perfect hashing so that the heavy rows of
    the Kronecker matrix land on arbitrary machines.  Two rounds of
    (odd-multiplier affine, xorshift) are each bijective mod ``2**scale``,
    so their composition is a permutation with good mixing.
    """
    mask = np.uint64((1 << scale) - 1)
    a = np.uint64(0x9E3779B97F4A7C15 | 1)   # odd => invertible mod 2^scale
    x = np.asarray(vertices, dtype=np.uint64) & mask
    for round_salt in (salt, salt ^ 0xA5A5A5A5):
        x = (x * a + np.uint64(round_salt)) & mask
        if scale > 1:
            # xorshift by >= scale/2 bits is an involution-free bijection
            # on scale-bit words.
            x ^= x >> np.uint64((scale + 1) // 2)
            x &= mask
    return x.astype(np.int64)


class Graph500Generator(TrillionGSeqGenerator):
    """NSKG generation + vertex scramble + CSR construction."""

    name = "Graph500"
    complexity = Complexity("O(|E| log|V| / P) + T_construct",
                            "O(|E|)", "WES/p+scramble")

    def __init__(self, *args, noise: float = 0.1, **kwargs) -> None:
        self._build(args, kwargs, noise=noise)
        self.noise = noise
        self.csr: tuple[np.ndarray, np.ndarray] | None = None

    def estimated_peak_bytes(self) -> int:
        # Edge list + CSR arrays all live in memory during construction.
        return self.num_edges * BYTES_PER_EDGE_IN_MEMORY * 2

    def generate(self) -> np.ndarray:
        self.check_memory_budget()
        report = self.report
        with report.time_phase("generate"):
            edges = self.inner.edges()
        with report.time_phase("scramble"):
            scrambled = np.column_stack([
                scramble_vertices(edges[:, 0], self.scale),
                scramble_vertices(edges[:, 1], self.scale)])
        with report.time_phase("construct"):
            # Graph500's shuffle + CSR conversion, whose cost the paper
            # shows dwarfs generation (>90% of runtime at scale 29).
            self.csr = build_csr(scrambled, self.num_vertices)
        report.realized_edges = scrambled.shape[0]
        report.duplicates_discarded = self.inner.stats.duplicates_discarded
        report.peak_memory_bytes = self.estimated_peak_bytes()
        return scrambled

    def construction_overhead_ratio(self) -> float:
        """Fraction of total time spent in scramble + construction
        (the Figure 14(b) metric)."""
        phases = self.report.phase_seconds
        total = sum(phases.values())
        if total == 0:
            return 0.0
        return (phases.get("scramble", 0.0)
                + phases.get("construct", 0.0)) / total
