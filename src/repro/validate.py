"""Output validation: check a generated graph against its configuration.

A synthetic-graph generator's outputs feed benchmarks, so a wrong graph
silently invalidates whole experiments.  This module re-derives the
properties a correct TrillionG output must have — simple (duplicate-free),
IDs in range, realized edge count consistent with Theorem 1, and the
Lemma 6 degree slope of the configured seed — and reports them as a
structured check list (also exposed as ``trilliong verify`` on the CLI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis.degree import out_degrees
from .analysis.fitting import fit_kronecker_class_slope
from .core.seed import SeedMatrix

__all__ = ["Check", "ValidationReport", "validate_edges"]


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
    """Validate a generated edge array.

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
    """
    checks: list[Check] = []
    m = edges.shape[0]

    # Structure.
    shape_ok = edges.ndim == 2 and (m == 0 or edges.shape[1] == 2)
    checks.append(Check("shape", shape_ok,
                        f"edge array shape {edges.shape}"))
    if not shape_ok:
        return ValidationReport(checks)

    if m:
        in_range = bool(edges.min() >= 0 and edges.max() < num_vertices)
        checks.append(Check(
            "ids-in-range", in_range,
            f"ids span [{edges.min()}, {edges.max()}] for "
            f"|V|={num_vertices}"))
    else:
        checks.append(Check("ids-in-range", True, "empty graph"))

    if expect_simple and m:
        packed = edges[:, 0] * np.int64(num_vertices) + edges[:, 1]
        unique = int(np.unique(packed).size)
        checks.append(Check(
            "no-duplicate-edges", unique == m,
            f"{m - unique} duplicate pairs" if unique != m
            else "all pairs distinct"))

    if expected_edges is not None:
        spread = max(5 * math.sqrt(max(expected_edges, 1)) + 10,
                     0.005 * expected_edges)
        deviation = abs(m - expected_edges)
        degrees = out_degrees(edges, num_vertices) if m else \
            np.zeros(num_vertices, dtype=np.int64)
        clipped = bool((degrees >= num_vertices).any())
        count_ok = deviation < spread or (clipped and m < expected_edges)
        checks.append(Check(
            "edge-count", count_ok,
            f"realized {m} vs target {expected_edges} "
            f"(tolerance ±{spread:.0f}"
            + (", hub clipped" if clipped else "") + ")"))

    if seed_matrix is not None and m:
        degrees = out_degrees(edges, num_vertices)
        predicted = seed_matrix.out_zipf_slope()
        try:
            measured = fit_kronecker_class_slope(degrees)
            slope_ok = abs(measured - predicted) < slope_tolerance
            detail = (f"measured {measured:.3f} vs Lemma 6 "
                      f"{predicted:.3f}")
        except ValueError as exc:
            slope_ok = False
            detail = f"slope fit failed: {exc}"
        checks.append(Check("zipf-slope", slope_ok, detail))

    return ValidationReport(checks)
