"""TeG — the non-stochastic decomposition baseline (Figure 8's foil).

The paper describes TeG as decomposing the adjacency matrix into
submatrices (scopes) whose edge counts are "statically (early) fixed"
instead of drawn stochastically; as a result its degree plot is "far from
RMAT's".  TeG is reproduced with exactly that one change: per-vertex scopes
whose sizes are the deterministic expectation ``round(|E| * P(u->))``
instead of Theorem 1's normal draw.  Destinations within a scope are still
sampled stochastically (so the *in*-degree side stays smooth; the failure
shows on the statically fixed side, as in Figure 8's TeG panel).
"""

from __future__ import annotations

from .avs import TrillionGSeqGenerator
from .base import Complexity

__all__ = ["TegGenerator"]


class TegGenerator(TrillionGSeqGenerator):
    """TeG-style static decomposition: AVS, scope sizes not drawn."""

    name = "TeG"
    complexity = Complexity("O(|E| log|V| / P)", "O(d_max)", "AVS-static")

    def __init__(self, *args, **kwargs) -> None:
        self._build(args, kwargs, degree_method="deterministic")
