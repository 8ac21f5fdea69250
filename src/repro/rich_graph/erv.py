"""The extended recursive vector (ERV) model — Section 6.1.

The ERV model decouples the two steps of the recursive vector model:

1. **scope sizes** (out-degrees) use seed parameters ``Kout`` via
   Theorem 1 — only the *row sums* of ``Kout`` matter here (Lemma 1);
2. **edge determination** (destinations, hence in-degrees) uses seed
   parameters ``Kin`` via Theorem 2 — only the *column marginals* of
   ``Kin`` matter, because ERV edges carry no source/destination
   correlation requirement.

It also supports different source and destination vertex ranges: sampling
happens in the power-of-two space ``2^L >= span`` and is scaled to the
real range with ``round(|Vdst| / 2^L * v)``, the paper's rectangle-matrix
mapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.recvec import build_recvec, determine_edges
from ..core.rng import stream
from ..core.scope import sample_scope_sizes
from ..core.seed import SeedMatrix
from ..errors import ConfigurationError
from ..util.external_sort import unique_sorted
from .distributions import (DegreeDistribution, Empirical, Gaussian,
                            Uniform, Zipfian, seed_for_in_slope,
                            seed_for_out_slope)

__all__ = ["ErvGenerator"]

_TAG_DEGREE = 201
_TAG_EDGE = 202
_TAG_POPULARITY = 203
_MAX_TOPUP = 200


def _levels_for(count: int) -> int:
    """Smallest L with 2**L >= count."""
    return max(int(math.ceil(math.log2(max(count, 2)))), 1)


@dataclass(frozen=True)
class _InSampler:
    """Destination sampler realizing a requested in-degree distribution.

    For the Zipfian case it uses the actual recursive-vector machinery:
    the marginal destination distribution of ``Kin`` factorizes per bit
    with ``P(bit=1) = beta+delta``, which equals the Theorem 2 process of
    a seed whose every row has that ratio — so the sample is drawn by
    inverse-CDF on a RecVec, exactly as in Section 4.2.  For the
    empirical (data-dictionary) case, each destination receives a
    popularity weight drawn from the dictionary and destinations are
    sampled proportionally (inverse-CDF on the popularity prefix sums).
    """

    recvec: np.ndarray | None         # Zipfian: RecVec inverse-CDF
    popularity_cdf: np.ndarray | None  # Empirical: per-destination CDF
    levels: int
    num_destinations: int

    @classmethod
    def for_distribution(cls, dist: DegreeDistribution,
                         num_destinations: int,
                         rng: np.random.Generator | None = None
                         ) -> "_InSampler":
        levels = _levels_for(num_destinations)
        if isinstance(dist, Zipfian):
            kin = seed_for_in_slope(dist.slope)
            # Row-uniform seed with the required column marginal: the
            # destination-bit probability is (beta+delta) of Kin.
            bd = kin.beta + kin.delta
            seed = SeedMatrix.rmat(0.5 * (1 - bd), 0.5 * bd,
                                   0.5 * (1 - bd), 0.5 * bd)
            recvec = build_recvec(seed, 0, levels)
            return cls(recvec, None, levels, num_destinations)
        if isinstance(dist, Empirical):
            if rng is None:
                raise ConfigurationError(
                    "empirical in-distribution needs an rng to draw "
                    "destination popularities")
            weights = rng.choice(dist.degrees, size=num_destinations,
                                 p=dist.probabilities).astype(np.float64)
            if weights.sum() <= 0:
                weights[:] = 1.0
            cdf = np.cumsum(weights)
            return cls(None, cdf / cdf[-1], levels, num_destinations)
        # Gaussian and Uniform in-degree both arise from uniformly random
        # destinations (binomial in-degree ~ Normal).
        return cls(None, None, levels, num_destinations)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if self.popularity_cdf is not None:
            xs = rng.random(count)
            return np.searchsorted(self.popularity_cdf, xs,
                                   side="right").astype(np.int64)
        if self.recvec is None:
            return rng.integers(0, self.num_destinations, size=count,
                                dtype=np.int64)
        xs = rng.random(count) * self.recvec[-1]
        raw = determine_edges(xs, self.recvec)
        span = 1 << self.levels
        if span == self.num_destinations:
            return raw
        # Rectangle mapping (Section 6.1): scale the 2^L space onto the
        # destination range.
        return np.minimum(
            np.rint(raw * (self.num_destinations / span)).astype(np.int64),
            self.num_destinations - 1)


class ErvGenerator:
    """Generate the edges of one (source range, destination range) rule.

    Parameters
    ----------
    num_sources, num_destinations:
        Sizes of the two vertex ranges (local IDs ``0..n-1``; the caller
        offsets them into the global ID space).
    num_edges:
        Edge budget for this rule.
    out_distribution, in_distribution:
        Marginal degree distributions (see
        :mod:`repro.rich_graph.distributions`).
    dedup:
        Eliminate repeated (source, destination) pairs, the gMark defect
        the paper calls out ("TrillionG eliminates such duplicates by
        default").
    """

    def __init__(self, num_sources: int, num_destinations: int,
                 num_edges: int,
                 out_distribution: DegreeDistribution,
                 in_distribution: DegreeDistribution, *,
                 dedup: bool = True, seed: int = 0) -> None:
        if num_sources < 1 or num_destinations < 1:
            raise ConfigurationError("vertex ranges must be non-empty")
        if num_edges < 0:
            raise ConfigurationError("num_edges must be >= 0")
        if dedup and num_edges > num_sources * num_destinations:
            raise ConfigurationError(
                "edge budget exceeds the rectangle's cell count")
        self.num_sources = num_sources
        self.num_destinations = num_destinations
        self.num_edges = num_edges
        self.out_distribution = out_distribution
        self.in_distribution = in_distribution
        self.dedup = dedup
        self.seed = seed

    # -- step 1: scope sizes (Theorem 1 under Kout) -------------------------

    def out_degrees(self) -> np.ndarray:
        rng = stream(self.seed, _TAG_DEGREE)
        n = self.num_sources
        dist = self.out_distribution
        if isinstance(dist, Zipfian):
            kout = seed_for_out_slope(dist.slope)
            levels = _levels_for(n)
            ab, cd = (float(x) for x in kout.row_sums())
            # Lemma 1 row probabilities over the 2^L space, renormalized to
            # the first n sources.
            ones = np.bitwise_count(
                np.arange(n, dtype=np.uint64)).astype(np.int64)
            probs = np.power(ab, levels - ones) * np.power(cd, ones)
            probs = probs / probs.sum()
            degrees = sample_scope_sizes(probs, self.num_edges, rng,
                                         max_size=self.num_destinations)
        elif isinstance(dist, Gaussian):
            # Uniform seed: Theorem 1 gives Binomial(|E|, 1/n), i.e. the
            # Table 3 Gaussian with mean |E|/n.
            probs = np.full(n, 1.0 / n)
            degrees = sample_scope_sizes(probs, self.num_edges, rng,
                                         max_size=self.num_destinations)
        elif isinstance(dist, Uniform):
            degrees = rng.integers(dist.low, dist.high + 1, size=n)
            np.minimum(degrees, self.num_destinations, out=degrees)
        elif isinstance(dist, Empirical):
            # Data-dictionary out-degrees: draw each source's degree from
            # the frequency table verbatim (the LDBC-style workflow).
            degrees = rng.choice(dist.degrees, size=n,
                                 p=dist.probabilities)
            np.minimum(degrees, self.num_destinations, out=degrees)
        else:  # pragma: no cover - exhaustive match
            raise ConfigurationError(
                f"unsupported out distribution {dist!r}")
        return degrees.astype(np.int64)

    # -- step 2: destinations (Theorem 2 under Kin) -------------------------

    def edges(self) -> np.ndarray:
        """Generate the rule's edges as an ``(m, 2)`` local-ID array."""
        degrees = self.out_degrees()
        rng = stream(self.seed, _TAG_EDGE)
        sampler = _InSampler.for_distribution(
            self.in_distribution, self.num_destinations,
            rng=stream(self.seed, _TAG_POPULARITY))
        total = int(degrees.sum())
        sources = np.repeat(np.arange(self.num_sources, dtype=np.int64),
                            degrees)
        dests = sampler.sample(total, rng)
        if not self.dedup:
            return np.column_stack([sources, dests])
        span = np.int64(self.num_destinations)
        keys = np.sort(sources * span + dests)
        keys = unique_sorted(keys)
        for _ in range(_MAX_TOPUP):
            have = np.bincount((keys // span).astype(np.int64),
                               minlength=self.num_sources)
            shortfall = degrees - have
            lacking = shortfall > 0
            if not lacking.any():
                break
            refill_src = np.repeat(
                np.arange(self.num_sources, dtype=np.int64)[lacking],
                shortfall[lacking])
            # Saturated scopes (degree ~ |Vdst|) cannot top up by
            # rejection; clip their demand to what remains reachable.
            new = refill_src * span + sampler.sample(refill_src.size, rng)
            merged = np.sort(np.concatenate([keys, new]))
            new_keys = unique_sorted(merged)
            if new_keys.size == keys.size:
                # No progress: remaining shortfalls are saturated scopes.
                break
            keys = new_keys
        return np.column_stack([keys // span, keys % span])

