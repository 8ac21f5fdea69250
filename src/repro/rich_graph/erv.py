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

Step 2 runs on the AVS generator's machinery: a rule's sources are cut
into runs of at most ``_BLOCK_EDGES`` edges (``core.generator._run_cuts``),
run ``k`` draws from ``stream(seed, 202, k)``, and
``core.generator._draw_run`` draws, sorts and tops up its scopes exactly
as it does a run of the AVS kernel.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterator

import numpy as np

from ..core.generator import (AdjacencyBlock, _digits_pmf, _draw_run,
                              _ppswor, _run_cuts)
from ..core.process import PlainProcess
from ..core.rng import stream
from ..core.scope import sample_scope_sizes
from ..core.seed import SeedMatrix
from ..core.tables import ScopeSampler
from ..errors import ConfigurationError
from .distributions import (DegreeDistribution, Empirical, Gaussian,
                            Uniform, Zipfian, seed_for_in_slope,
                            seed_for_out_slope)

__all__ = ["ErvGenerator"]

_TAG_DEGREE = 201
_TAG_EDGE = 202
_TAG_POPULARITY = 203


def _levels_for(count: int) -> int:
    """Smallest L with 2**L >= count."""
    return max(int(math.ceil(math.log2(max(count, 2)))), 1)


class _InSampler:
    """Destinations realizing a requested in-degree distribution, drawn
    as packed keys ``row << levels | destination``.

    For the Zipfian case it uses the AVS kernel's sampler: the marginal
    destination distribution of ``Kin`` factorizes per bit with
    ``P(bit=1) = beta+delta``, which equals the Theorem 2 process of a
    seed whose every row has that ratio: one alias row per chunk of a
    :class:`~repro.core.tables.ScopeSampler` over the ``2^L`` space, and
    the rectangle mapping scales the draw onto the range.  For the
    empirical (data-dictionary) case, each destination receives a
    popularity weight drawn from the dictionary and destinations are
    sampled proportionally (inverse-CDF on the popularity prefix sums).
    Gaussian and Uniform in-degree both arise from uniformly random
    destinations (binomial in-degree ~ Normal).
    """

    def __init__(self, dist: DegreeDistribution, num_destinations: int,
                 rng: np.random.Generator) -> None:
        self.levels = _levels_for(num_destinations)
        self.num_destinations = num_destinations
        self._bit_one: float | None = None
        self._scope: ScopeSampler | None = None
        self._cdf: np.ndarray | None = None
        if isinstance(dist, Zipfian):
            kin = seed_for_in_slope(dist.slope)
            one = kin.beta + kin.delta
            self._bit_one = one
            self._scope = ScopeSampler(PlainProcess(
                SeedMatrix.rmat(0.5 * (1 - one), 0.5 * one,
                                0.5 * (1 - one), 0.5 * one),
                self.levels).digit_matrices())
        elif isinstance(dist, Empirical):
            weights = rng.choice(dist.degrees, size=num_destinations,
                                 p=dist.probabilities).astype(np.float64)
            if weights.sum() <= 0:
                weights[:] = 1.0
            cdf = np.cumsum(weights)
            self._cdf = cdf / cdf[-1]

    def keys(self, counts: np.ndarray, rng: np.random.Generator
             ) -> np.ndarray:
        """``counts[j]`` keys ``j << levels | destination`` per row
        ``j``, rows in order (repeats possible)."""
        if self._scope is not None:
            keys = self._scope.keys(np.zeros(counts.size, dtype=np.int64),
                                    counts, self.levels, rng)
            if self.num_destinations < 1 << self.levels:
                raw = keys & np.int64((1 << self.levels) - 1)
                keys -= raw
                keys |= self._rectangle(raw)
            return keys
        keys = np.repeat(np.arange(counts.size, dtype=np.int64)
                         << self.levels, counts)
        if self._cdf is not None:
            keys |= np.searchsorted(self._cdf, rng.random(keys.size),
                                    side="right")
        else:
            keys |= rng.integers(0, self.num_destinations, size=keys.size,
                                 dtype=np.int64)
        return keys

    def _rectangle(self, raw: np.ndarray) -> np.ndarray:
        """Rectangle mapping (Section 6.1): the ``2^L`` space scaled onto
        the destination range."""
        scale = self.num_destinations / (1 << self.levels)
        return np.minimum(np.rint(raw * scale).astype(np.int64),
                          self.num_destinations - 1)

    @cached_property
    def pmf(self) -> np.ndarray:
        """``P(destination)`` over ``[0, |Vdst|)``, for the exact
        fallback; built by the first scope that needs it."""
        n = self.num_destinations
        if self._bit_one is not None:
            one = self._bit_one
            span = _digits_pmf(np.tile([1.0 - one, one], (self.levels, 1)))
            return np.bincount(self._rectangle(np.arange(span.size)),
                               weights=span, minlength=n)
        if self._cdf is not None:
            return np.diff(self._cdf, prepend=0.0)
        return np.full(n, 1.0 / n)


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
        # A run's keys pack ``row << L | dest`` into a signed int64.
        if (num_sources - 1).bit_length() + _levels_for(
                num_destinations) > 63:
            raise ConfigurationError(
                f"{num_sources} x {num_destinations} does not fit an "
                f"int64 key")
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

    def runs(self) -> Iterator[AdjacencyBlock]:
        """The rule's scopes in local IDs, one run of at most
        ``_BLOCK_EDGES`` edges (or one larger scope) at a time; run ``k``
        draws from ``stream(seed, 202, k)``.  A run is let go once the
        consumer resumes."""
        degrees = self.out_degrees()
        sampler = _InSampler(self.in_distribution, self.num_destinations,
                             stream(self.seed, _TAG_POPULARITY))
        cuts = _run_cuts(degrees)
        for k, (first, stop) in enumerate(zip(cuts, cuts[1:])):
            rng = stream(self.seed, _TAG_EDGE, k)
            run, _ = _draw_run(
                np.arange(first, stop, dtype=np.int64), degrees[first:stop],
                sampler.levels, self.dedup,
                lambda rows, counts: sampler.keys(counts, rng),
                lambda row, size: _ppswor(sampler.pmf, size, rng))
            yield run
            del run

    def edges(self) -> np.ndarray:
        """Generate the rule's edges as an ``(m, 2)`` local-ID array."""
        return np.concatenate([run.edge_array() for run in self.runs()])
