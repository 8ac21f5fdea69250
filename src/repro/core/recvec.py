"""The recursive vector (``RecVec``) model — Section 4 of the paper.

``RecVec`` for a source vertex ``u`` stores the CDF of the destination
distribution at the powers of two::

    RecVec[x] = F_u(2**x) = sum_{v=0}^{2**x - 1} P(u -> v),   0 <= x <= L

where ``L = log2(|V|)``.  It is built in O(L) time via Lemma 2, occupies
O(L) space, and supports inverse-CDF sampling of a destination in
O(ones(v) * log L) time via the scale/translational symmetries (Lemmas 3-4,
Theorem 2, Algorithm 5).

Three search strategies are provided (Table 2):

- :func:`determine_edge` — the paper's Algorithm 5 (binary search on
  RecVec, iterative form);
- :func:`determine_edge_recursive` — literal recursive transcription of
  Algorithm 5 (test reference);
- :func:`determine_edge_cdf` — the naive O(|V|)-space CDF-vector method
  of Section 4.2, with linear or binary search (baseline for Table 2).

High precision: the paper stores RecVec as ``BigDecimal`` to survive
trillion-scale CDF arithmetic; :func:`build_recvec_decimal` provides the
equivalent using :mod:`decimal` with configurable precision.
"""

from __future__ import annotations

import decimal
from bisect import bisect_right
from decimal import Decimal

import numpy as np

from ..errors import ConfigurationError
from .bits import bits_array
from .probability import edge_probability, row_probability
from .seed import SeedMatrix

__all__ = [
    "build_recvec",
    "build_recvec_naive",
    "build_recvec_decimal",
    "build_recvecs",
    "sigma_from_recvec",
    "scale_symmetry_ratio",
    "determine_edge",
    "determine_edge_recursive",
    "determine_edge_cdf",
    "determine_edges",
]


# ---------------------------------------------------------------------------
# Construction (Definition 2 / Lemma 2)
# ---------------------------------------------------------------------------

def build_recvec(seed: SeedMatrix, u: int, levels: int) -> np.ndarray:
    """Build ``RecVec[0..levels]`` for source ``u`` in O(levels) (Lemma 2).

    Uses the recurrence implied by Lemma 2:
    ``RecVec[levels] = P(u->)`` and
    ``RecVec[x] = RecVec[x+1] * K[u[x],0] / (K[u[x],0] + K[u[x],1])``,
    i.e. halving the covered range keeps only the "destination bit = 0"
    branch at level ``x``.
    """
    a, b, c, d = seed.as_tuple()
    q0 = a / (a + b)          # keep-low factor when the source bit is 0
    q1 = c / (c + d)          # keep-low factor when the source bit is 1
    vec = np.empty(levels + 1, dtype=np.float64)
    vec[levels] = row_probability(seed, u, levels)
    for x in range(levels - 1, -1, -1):
        vec[x] = vec[x + 1] * (q1 if (u >> x) & 1 else q0)
    return vec


def build_recvec_naive(seed: SeedMatrix, u: int, levels: int) -> np.ndarray:
    """Definition 2 by brute force: O(|V|) summation of Proposition 1.

    Test support — cross-checks Lemma 2 on small graphs.
    """
    vec = np.empty(levels + 1, dtype=np.float64)
    for x in range(levels + 1):
        vec[x] = sum(
            edge_probability(seed, u, v, levels) for v in range(1 << x))
    return vec


def build_recvec_decimal(seed: SeedMatrix, u: int, levels: int,
                         precision: int = 34) -> list[Decimal]:
    """High-precision RecVec using :mod:`decimal` (paper: ``BigDecimal``).

    ``precision=34`` matches IEEE 754 decimal128's 34 significant digits,
    the type the paper says it "approximately matches".
    """
    ctx = decimal.Context(prec=precision)
    a, b, c, d = (ctx.create_decimal(repr(x)) for x in seed.as_tuple())
    q0 = ctx.divide(a, a + b)
    q1 = ctx.divide(c, c + d)
    ab, cd = a + b, c + d
    ones = int(u).bit_count()
    p_row = ctx.multiply(ctx.power(ab, levels - ones), ctx.power(cd, ones))
    vec: list[Decimal] = [Decimal(0)] * (levels + 1)
    vec[levels] = p_row
    for x in range(levels - 1, -1, -1):
        factor = q1 if (u >> x) & 1 else q0
        vec[x] = ctx.multiply(vec[x + 1], factor)
    return vec


def build_recvecs(seed: SeedMatrix, sources: np.ndarray,
                  levels: int) -> np.ndarray:
    """Vectorized Lemma 2: one RecVec row per source vertex.

    Returns an array of shape ``(len(sources), levels + 1)`` where row ``j``
    is ``RecVec`` for ``sources[j]``.  Runs in O(len(sources) * levels)
    numpy time with no per-vertex Python loop.
    """
    a, b, c, d = seed.as_tuple()
    q0 = a / (a + b)
    q1 = c / (c + d)
    ab, cd = a + b, c + d
    src = np.asarray(sources, dtype=np.uint64)
    ones = bits_array(src).astype(np.int64)
    out = np.empty((src.size, levels + 1), dtype=np.float64)
    out[:, levels] = np.power(ab, levels - ones) * np.power(cd, ones)
    for x in range(levels - 1, -1, -1):
        bit = ((src >> np.uint64(x)) & np.uint64(1)).astype(bool)
        out[:, x] = out[:, x + 1] * np.where(bit, q1, q0)
    return out


# ---------------------------------------------------------------------------
# Symmetries (Lemmas 3-4)
# ---------------------------------------------------------------------------

def scale_symmetry_ratio(seed: SeedMatrix, u: int, k: int) -> float:
    """Lemma 3's constant ratio ``sigma_{u[k]} = K[u[k],1] / K[u[k],0]``:
    the PMF over ``[2^k, 2^{k+1})`` is the PMF over ``[0, 2^k)`` scaled by
    this constant."""
    a, b, c, d = seed.as_tuple()
    return (d / c) if (u >> k) & 1 else (b / a)


def sigma_from_recvec(recvec, k: int) -> float:
    """Algorithm 5's in-place sigma:
    ``(RecVec[k+1] - RecVec[k]) / RecVec[k]``.

    Equals :func:`scale_symmetry_ratio` for the noiseless model (because
    ``F_u(2^{k+1}) = F_u(2^k) * (1 + sigma)`` by Lemma 4 with ``r = R``) and
    remains correct under NSKG noise, where the per-level ratios differ.
    Works for both numpy rows and Decimal lists.
    """
    return (recvec[k + 1] - recvec[k]) / recvec[k]


# ---------------------------------------------------------------------------
# Edge determination (Theorem 2 / Algorithm 5)
# ---------------------------------------------------------------------------

def _zero_entry(k: int) -> ConfigurationError:
    """The error for a walk that would divide by ``RecVec[k] == 0``.

    A zero entry means the seed has ``p(u_j, 0) = 0`` at some level
    ``j >= k``; every entry below it is then zero too and carries no
    information about the lower destination bits, so Algorithm 5 cannot
    invert the CDF there.
    """
    return ConfigurationError(
        f"RecVec[{k}] is exactly zero: the seed forbids destination bit 0 "
        "at a level of this source, so Algorithm 5 cannot recover the "
        "lower bits; sample such seeds with repro.core.tables.ScopeSampler")


def determine_edge(x, recvec) -> int:
    """Determine the destination vertex for random value ``x`` (Algorithm 5).

    ``x`` must lie in ``[0, RecVec[L])``.  Iterative transcription of the
    paper's tail recursion: while ``x >= RecVec[0]``, find the unique ``k``
    with ``RecVec[k] <= x < RecVec[k+1]`` (binary search), accumulate
    ``2**k``, and translate ``x' = (x - RecVec[k]) / sigma``; when
    ``x < RecVec[0]`` the remaining destination suffix is 0.

    Accepts either a numpy float row or a list of :class:`~decimal.Decimal`.
    Raises :class:`~repro.errors.ConfigurationError` instead of dividing
    by a zero entry (a seed with a zero in column 0).
    """
    top = len(recvec) - 1
    v = 0
    # In exact arithmetic k strictly decreases between iterations; last_k
    # enforces that under floating point so a bit can never be added twice.
    last_k = top
    while x >= recvec[0] and last_k > 0:
        # bisect_right gives the first index whose value exceeds x; the
        # paper's k is one to its left.  Clamp for x == RecVec[top] edge case.
        k = min(bisect_right(recvec, x) - 1, last_k - 1)
        if not recvec[k]:
            raise _zero_entry(k)
        sigma = (recvec[k + 1] - recvec[k]) / recvec[k]
        x = (x - recvec[k]) / sigma
        v += 1 << k
        last_k = k
    return v


def determine_edge_recursive(x, recvec, _last_k: int | None = None) -> int:
    """Literal recursive form of Algorithm 5 (reference for tests).

    Python's recursion limit is ample: the depth is the destination
    popcount, at most ``log2(|V|)``.
    """
    if _last_k is None:
        _last_k = len(recvec) - 1
    if x < recvec[0] or _last_k == 0:
        return 0
    k = min(bisect_right(recvec, x) - 1, _last_k - 1)
    if not recvec[k]:
        raise _zero_entry(k)
    sigma = (recvec[k + 1] - recvec[k]) / recvec[k]
    return (1 << k) + determine_edge_recursive((x - recvec[k]) / sigma,
                                               recvec, k)


def determine_edge_cdf(x: float, cdf: np.ndarray,
                       search: str = "binary") -> int:
    """The naive method of Section 4.2: invert the full CDF vector.

    ``cdf`` has length ``|V| + 1`` with ``cdf[0] = 0`` (see
    :func:`repro.core.probability.brute_force_cdf`).  ``search`` selects the
    Table 2 row: ``"linear"`` (O(|V|)) or ``"binary"`` (O(log |V|)).
    """
    if search == "binary":
        idx = int(np.searchsorted(cdf, x, side="right")) - 1
    elif search == "linear":
        idx = 0
        while idx + 1 < len(cdf) and cdf[idx + 1] <= x:
            idx += 1
    else:
        raise ValueError(f"unknown search strategy: {search!r}")
    return min(idx, len(cdf) - 2)


def determine_edges(xs: np.ndarray, recvec: np.ndarray) -> np.ndarray:
    """Vectorized Algorithm 5 for a batch of random values sharing one
    RecVec (i.e. one source vertex).

    Runs the translation loop simultaneously over all values; each pass
    peels one 1 bit from every still-active value, so the number of passes
    is the maximum destination popcount.  Raises
    :class:`~repro.errors.ConfigurationError` instead of dividing by a
    zero entry, like :func:`determine_edge`.
    """
    top = recvec.size - 1
    # sigma[k] for every k, precomputed once (Idea #1 at vector granularity);
    # a zero entry's sigma is never used, the walk raises before.
    with np.errstate(divide="ignore", invalid="ignore"):
        sigmas = (recvec[1:] - recvec[:-1]) / recvec[:-1]
    x = np.asarray(xs, dtype=np.float64).copy()
    v = np.zeros(x.shape, dtype=np.int64)
    last_k = np.full(x.shape, top, dtype=np.int64)
    active = (x >= recvec[0]) & (last_k > 0)
    while active.any():
        xa = x[active]
        k = np.searchsorted(recvec, xa, side="right") - 1
        np.minimum(k, last_k[active] - 1, out=k)
        base = recvec[k]
        if not base.all():
            raise _zero_entry(int(k[np.argmin(base)]))
        x[active] = (xa - base) / sigmas[k]
        v[active] += np.int64(1) << k.astype(np.int64)
        last_k[active] = k
        active = (x >= recvec[0]) & (last_k > 0)
    return v
