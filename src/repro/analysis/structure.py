"""Structural graph metrics beyond degree distributions.

Realism checks in the Kronecker-graph literature (e.g. Leskovec et al.)
also look at reciprocity, clustering, and triangle counts.  These are
provided vectorized: exact where cheap, wedge-sampling estimates where the
exact computation would not scale.
"""

from __future__ import annotations

import numpy as np

from ..core.rng import stream
from .traversal import build_csr

__all__ = ["reciprocity", "triangle_count", "clustering_coefficient_sampled",
           "pagerank", "effective_diameter", "symmetrize"]


def reciprocity(edges: np.ndarray, num_vertices: int) -> float:
    """Fraction of edges whose reverse edge also exists.

    Matches networkx's ``overall_reciprocity``: self-loops count toward
    the edge total but are never considered reciprocated.
    """
    if edges.shape[0] == 0:
        return 0.0
    n = np.int64(num_vertices)
    all_keys = np.unique(edges[:, 0] * n + edges[:, 1])
    proper = edges[edges[:, 0] != edges[:, 1]]
    if proper.shape[0] == 0:
        return 0.0
    forward = np.unique(proper[:, 0] * n + proper[:, 1])
    backward = np.unique(proper[:, 1] * n + proper[:, 0])
    mutual = np.intersect1d(forward, backward, assume_unique=True)
    return mutual.size / all_keys.size


def triangle_count(edges: np.ndarray, num_vertices: int) -> int:
    """Exact undirected triangle count via sorted-adjacency merging.

    O(sum_v d(v)^2) worst case; intended for the small scales where exact
    counts are testable.  Edges are treated as undirected and
    deduplicated first.
    """
    if edges.shape[0] == 0:
        return 0
    n = np.int64(num_vertices)
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[both[:, 0] != both[:, 1]]
    keys = np.unique(both[:, 0] * n + both[:, 1])
    und = np.column_stack([keys // n, keys % n])
    # Orient each edge from lower to higher degree (standard trick).
    deg = np.bincount(und[:, 0], minlength=num_vertices)
    u, v = und[:, 0], und[:, 1]
    forward = (deg[u] < deg[v]) | ((deg[u] == deg[v]) & (u < v))
    oriented = und[forward]
    indptr, indices = build_csr(oriented, num_vertices)
    count = 0
    for a, b in oriented:
        ra = indices[indptr[a]:indptr[a + 1]]
        rb = indices[indptr[b]:indptr[b + 1]]
        count += np.intersect1d(ra, rb, assume_unique=True).size
    return int(count)


def clustering_coefficient_sampled(edges: np.ndarray, num_vertices: int,
                                   samples: int = 2000,
                                   rng: np.random.Generator | None = None
                                   ) -> float:
    """Wedge-sampling estimate of the global clustering coefficient.

    Samples random wedges (paths a-b-c through a centre b) from the
    undirected view and reports the fraction that close into triangles —
    the unbiased estimator of 3*triangles/wedges.
    """
    if rng is None:
        rng = stream(0)
    if edges.shape[0] == 0:
        return 0.0
    n = np.int64(num_vertices)
    both = np.concatenate([edges, edges[:, ::-1]])
    both = both[both[:, 0] != both[:, 1]]
    keys = np.unique(both[:, 0] * n + both[:, 1])
    und = np.column_stack([keys // n, keys % n])
    indptr, indices = build_csr(und, num_vertices)
    deg = np.diff(indptr)
    wedge_weight = (deg * (deg - 1) // 2).astype(np.float64)
    total_wedges = wedge_weight.sum()
    if total_wedges == 0:
        return 0.0
    centres = rng.choice(num_vertices, size=samples,
                         p=wedge_weight / total_wedges)
    edge_set = set(map(int, keys.tolist()))
    closed = 0
    for b in centres:
        row = indices[indptr[b]:indptr[b + 1]]
        i, j = rng.choice(row.size, size=2, replace=False)
        a, c = int(row[i]), int(row[j])
        if a * int(n) + c in edge_set:
            closed += 1
    return closed / samples


def symmetrize(edges: np.ndarray, num_vertices: int) -> np.ndarray:
    """Undirected view: every edge and its reverse, once each, sorted by
    ``(u, v)`` (what Graph500 does before running BFS)."""
    if edges.shape[0] == 0:
        return edges.copy()
    n = np.int64(num_vertices)
    keys = np.unique(np.concatenate([edges[:, 0] * n + edges[:, 1],
                                     edges[:, 1] * n + edges[:, 0]]))
    return np.column_stack([keys // n, keys % n])


def effective_diameter(edges: np.ndarray, num_vertices: int,
                       percentile: float = 0.9, samples: int = 32,
                       rng: np.random.Generator | None = None) -> float:
    """Sampled effective diameter: the distance within which
    ``percentile`` of reachable pairs lie (undirected view).

    The small effective diameter is one of the realism properties the
    Kronecker-graph literature checks; estimated here from BFS distances
    out of sampled roots (with interpolation between integer hops, the
    standard ANF-style definition).
    """
    from .traversal import bfs_levels

    if not 0 < percentile < 1:
        raise ValueError("percentile must be in (0, 1)")
    if rng is None:
        rng = stream(0)
    if edges.shape[0] == 0:
        return 0.0
    und = symmetrize(edges, num_vertices)
    indptr, indices = build_csr(und, num_vertices)
    candidates = np.nonzero(np.diff(indptr) > 0)[0]
    roots = rng.choice(candidates, size=min(samples, candidates.size),
                       replace=False)
    distances = []
    for root in roots:
        levels = bfs_levels(indptr, indices, int(root), num_vertices)
        reached = levels[levels > 0]
        if reached.size:
            distances.append(reached)
    if not distances:
        return 0.0
    all_d = np.concatenate(distances).astype(np.float64)
    hist = np.bincount(all_d.astype(np.int64))
    cdf = np.cumsum(hist) / all_d.size
    # Interpolate between the two hops bracketing the percentile.
    h = int(np.searchsorted(cdf, percentile))
    if h == 0:
        return float(h)
    lo_mass = cdf[h - 1]
    hi_mass = cdf[h]
    if hi_mass == lo_mass:
        return float(h)
    return float(h - 1 + (percentile - lo_mass) / (hi_mass - lo_mass))


def pagerank(edges: np.ndarray, num_vertices: int, damping: float = 0.85,
             iterations: int = 50, tol: float = 1e-10) -> np.ndarray:
    """Power-iteration PageRank over the directed edge array.

    Dangling nodes distribute their mass uniformly (the standard fix).
    Vectorized with ``np.add.at``; fine up to millions of edges.
    """
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    n = num_vertices
    rank = np.full(n, 1.0 / n)
    out_deg = np.bincount(edges[:, 0], minlength=n).astype(np.float64) \
        if edges.shape[0] else np.zeros(n)
    dangling = out_deg == 0
    src = edges[:, 0]
    dst = edges[:, 1]
    inv_deg = np.zeros(n)
    inv_deg[~dangling] = 1.0 / out_deg[~dangling]
    for _ in range(iterations):
        contrib = rank * inv_deg
        nxt = np.zeros(n)
        if edges.shape[0]:
            np.add.at(nxt, dst, contrib[src])
        nxt = damping * (nxt + rank[dangling].sum() / n) \
            + (1 - damping) / n
        if np.abs(nxt - rank).sum() < tol:
            rank = nxt
            break
        rank = nxt
    return rank
