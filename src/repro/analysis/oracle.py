"""A pass/fail judgement of an AVS graph's scope-size law.

Under Theorem 1 the size of scope ``u`` is Binomial(|E|, p_u), so the
model fixes two numbers before a graph is drawn:

- **isolated scopes.** Scope ``u`` is empty with probability
  ``(1 - p_u)^|E|``.  Their mean over the scopes is the ``k = 0`` term of
  the binomial mixture (``theory.expected_degree_distribution`` for the
  noiseless model; the same sum over the process's own ``p_u`` under
  NSKG noise).  The realized count must lie within ``_SIGMAS`` = 4
  binomial standard deviations of ``|V|`` times it.
- **the |E| contract.** The scope sizes of the default ``split`` method
  add up to ``|E|`` exactly; the exception is a scope capped at ``|V|``
  (its distinct cells), which can only lower the sum.  (A seed with a
  zero entry can also leave a scope larger than its support; the check
  reports that as a miss.)

The checks read the generated blocks (the sizes after dedup and top-up,
i.e. the degrees that reach disk), and the mixture needs every scope's
``p_u``: meant for scales up to ~20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.generator import RecursiveVectorGenerator

__all__ = ["ScopeLawReport", "check_scope_law"]

#: The isolated-scope gate, in binomial standard deviations.
_SIGMAS = 4.0


@dataclass(frozen=True)
class ScopeLawReport:
    """What :func:`check_scope_law` measured, and its verdicts."""

    isolated: int
    expected_isolated: float
    sigma: float
    degree_sum: int
    num_edges: int
    #: Scopes holding ``|V|`` edges, the cap that may lower ``degree_sum``.
    capped: int

    @property
    def isolated_z(self) -> float:
        return (self.isolated - self.expected_isolated) / self.sigma

    @property
    def isolated_ok(self) -> bool:
        return abs(self.isolated_z) <= _SIGMAS

    @property
    def edges_ok(self) -> bool:
        if self.capped:
            return self.degree_sum <= self.num_edges
        return self.degree_sum == self.num_edges

    @property
    def passed(self) -> bool:
        return self.isolated_ok and self.edges_ok

    def __str__(self) -> str:
        return (f"isolated {self.isolated} vs {self.expected_isolated:.1f} "
                f"(z = {self.isolated_z:+.2f}, "
                f"{'ok' if self.isolated_ok else 'FAIL'}); "
                f"sum of degrees {self.degree_sum} vs |E| = "
                f"{self.num_edges} ({self.capped} capped, "
                f"{'ok' if self.edges_ok else 'FAIL'})")


def check_scope_law(generator: RecursiveVectorGenerator) -> ScopeLawReport:
    """Generate ``generator``'s graph and judge its scope sizes against
    Theorem 1's binomials and the |E| contract."""
    degrees = np.concatenate([block.degrees
                              for block in generator.iter_blocks()])
    n = generator.num_vertices
    probs = generator.process.row_probabilities(np.arange(n, dtype=np.uint64))
    # (1 - p)^|E| in log space: |E| is large and p tiny.
    empty = float(np.mean(np.exp(generator.num_edges * np.log1p(-probs))))
    return ScopeLawReport(
        isolated=int(np.count_nonzero(degrees == 0)),
        expected_isolated=n * empty,
        sigma=math.sqrt(n * empty * (1.0 - empty)),
        degree_sum=int(degrees.sum()),
        num_edges=generator.num_edges,
        capped=int(np.count_nonzero(degrees >= n)) if generator.dedup else 0)
