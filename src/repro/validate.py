"""Output validation: check a generated graph against its configuration.

A synthetic-graph generator's outputs feed benchmarks, so a wrong graph
silently invalidates whole experiments.  This module re-derives the
properties a correct TrillionG output must have — simple (duplicate-free),
IDs in range, realized edge count consistent with Theorem 1, and the
Lemma 6 degree slope of the configured seed — and reports them as a
structured check list (also exposed as ``trilliong verify`` on the CLI).

The checks fold a graph one block at a time in ``O(one block + log
|V|)`` state, so a file is checked as it is read.  That needs the sorted
layout every writer here produces — ``(u, v)`` strictly ascending, so a
repeated pair is two equal neighbours; :func:`validate_edges` sorts an
edge array into it first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .analysis.fitting import fit_class_sums_slope
from .core.generator import AdjacencyBlock
from .core.seed import SeedMatrix
from .formats.base import block_from_edges

__all__ = ["Check", "ValidationReport", "validate_edges", "validate_blocks"]


@dataclass(frozen=True)
class Check:
    """One validation check's outcome."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass
class ValidationReport:
    """All checks for one graph."""

    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def validate_edges(edges: np.ndarray, num_vertices: int, *,
                   seed_matrix: SeedMatrix | None = None,
                   expected_edges: int | None = None,
                   expect_simple: bool = True,
                   slope_tolerance: float = 0.35) -> ValidationReport:
    """Validate a generated edge array, in any order.

    Parameters
    ----------
    edges, num_vertices:
        The graph to check.
    seed_matrix:
        When given, the out-degree Zipf class slope is checked against
        Lemma 6's prediction for this seed.
    expected_edges:
        When given, the realized count must lie within
        ``max(5 * sqrt(|E|) + 10, 0.005 * |E|)`` of the Theorem 1 target,
        unless hub scopes were clipped at |V|.  The first term is 5
        binomial standard deviations.  The second is a floor for outputs
        whose scope sizes are drawn one scope at a time, which the
        binomial term alone (0.24 % of |E| at scale 18) would reject:
        ``degree_method="normal"``'s Normal(np, np(1-p)) draws clipped at
        0, which lift the realized count by +0.13 ... +0.26 % at every
        scale, and ``rich``'s Zipfian and Gaussian rules.  ``generate``'s
        default ``"split"`` sizes, for every seed radix, add up to |E|
        exactly.
    expect_simple:
        Require no repeated (u, v) pairs (TrillionG's default contract).

    The pairs are sorted as packed keys (``u * |V| + v`` when every id
    is in range) and folded as one block of :func:`validate_blocks`.
    """
    m = edges.shape[0]
    shape_ok = edges.ndim == 2 and (m == 0 or edges.shape[1] == 2)
    shape = Check("shape", shape_ok, f"edge array shape {edges.shape}")
    if not shape_ok:
        return ValidationReport([shape])
    tally = _Tally(num_vertices)
    if m:
        lo = min(int(edges.min()), 0)
        base = np.int64(max(int(edges.max()) + 1, num_vertices) - lo)
        keys = np.sort((edges[:, 0] - lo) * base + edges[:, 1] - lo)
        tally.add(block_from_edges(np.column_stack(np.divmod(keys, base))
                                   + lo))
    return ValidationReport([shape] + tally.checks(
        seed_matrix, expected_edges, expect_simple, slope_tolerance))


def validate_blocks(blocks: Iterable[AdjacencyBlock], num_vertices: int,
                    *, seed_matrix: SeedMatrix | None = None,
                    expected_edges: int | None = None,
                    expect_simple: bool = True,
                    slope_tolerance: float = 0.35) -> ValidationReport:
    """:func:`validate_edges` of a graph streamed as blocks in the sorted
    layout (a file's :meth:`~repro.formats.GraphFormat.read_blocks`),
    one block at a time.  An edge out of that order fails
    ``no-duplicate-edges``, naming its source."""
    tally = _Tally(num_vertices)
    for block in blocks:
        tally.add(block)
        del block
    return ValidationReport(
        [Check("shape", True, f"edge array shape ({tally.edges}, 2)")]
        + tally.checks(seed_matrix, expected_edges, expect_simple,
                       slope_tolerance))


class _Tally:
    """What the checks need of a graph, folded a block at a time: the
    edge count, the id span, the last edge and the first one out of the
    sorted layout, the repeated pairs, whether a source reached ``|V|``
    neighbours and the degree sum of each source popcount class."""

    def __init__(self, num_vertices: int) -> None:
        self.num_vertices = num_vertices
        self.edges = self.duplicates = 0
        self.lo, self.hi, self.top_source = math.inf, -math.inf, -1
        self.last: tuple[int, int] | None = None
        self.unsorted: str | None = None
        self.clipped = False
        self.class_sums = np.zeros(65, dtype=np.int64)

    def add(self, block: AdjacencyBlock) -> None:
        v = block.destinations
        if v.size == 0:
            return
        u = np.repeat(block.sources, block.degrees)
        self.edges += v.size
        self.lo = min(self.lo, int(u.min()), int(v.min()))
        self.hi = max(self.hi, int(u.max()), int(v.max()))
        self.top_source = max(self.top_source, int(u.max()))
        self.clipped |= bool((block.degrees >= self.num_vertices).any())
        self.class_sums += np.bincount(
            np.bitwise_count(u[u >= 0].astype(np.uint64)), minlength=65)
        if self.last is not None:
            u = np.concatenate([[self.last[0]], u])
            v = np.concatenate([[self.last[1]], v])
        self.last = int(u[-1]), int(v[-1])
        # The sorted layout: (u, v) strictly ascending, u first.
        same = u[1:] == u[:-1]
        self.duplicates += int(np.count_nonzero(same & (v[1:] == v[:-1])))
        late = np.flatnonzero((u[1:] < u[:-1]) | same & (v[1:] < v[:-1]))
        if late.size and self.unsorted is None:
            i = int(late[0]) + 1
            self.unsorted = (f"vertex {u[i]} is not in the sorted layout: "
                             f"edge ({u[i]}, {v[i]}) after "
                             f"({u[i - 1]}, {v[i - 1]})")

    def checks(self, seed_matrix: SeedMatrix | None,
               expected_edges: int | None, expect_simple: bool,
               slope_tolerance: float) -> list[Check]:
        m, n = self.edges, self.num_vertices
        checks = [Check("ids-in-range", self.lo >= 0 and self.hi < n,
                        f"ids span [{self.lo}, {self.hi}] for |V|={n}")
                  if m else Check("ids-in-range", True, "empty graph")]
        if expect_simple and m:
            checks.append(Check(
                "no-duplicate-edges",
                self.unsorted is None and self.duplicates == 0,
                self.unsorted or (f"{self.duplicates} duplicate pairs"
                                  if self.duplicates
                                  else "all pairs distinct")))
        if expected_edges is not None:
            spread = max(5 * math.sqrt(max(expected_edges, 1)) + 10,
                         0.005 * expected_edges)
            count_ok = (abs(m - expected_edges) < spread
                        or (self.clipped and m < expected_edges))
            checks.append(Check(
                "edge-count", count_ok,
                f"realized {m} vs target {expected_edges} "
                f"(tolerance ±{spread:.0f}"
                + (", hub clipped" if self.clipped else "") + ")"))
        if seed_matrix is not None and m:
            predicted = seed_matrix.out_zipf_slope()
            try:
                measured = fit_class_sums_slope(
                    self.class_sums, max(n, self.top_source + 1))
                slope_ok = abs(measured - predicted) < slope_tolerance
                detail = (f"measured {measured:.3f} vs Lemma 6 "
                          f"{predicted:.3f}")
            except ValueError as exc:
                slope_ok = False
                detail = f"slope fit failed: {exc}"
            checks.append(Check("zipf-slope", slope_ok, detail))
        return checks
