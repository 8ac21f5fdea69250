"""Distribution fitting: Zipf slopes, Gaussian moments, and the
oscillation score that Figure 9 / NSKG is about.

Lemma 6 predicts the Zipf slope of a Kronecker-family degree distribution
directly from the seed parameters; :func:`fit_zipf_slope` measures it from
a generated graph so Table 3 can compare prediction and measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degree import degree_histogram

__all__ = ["fit_zipf_slope", "fit_kronecker_class_slope",
           "fit_class_sums_slope", "GaussianFit",
           "fit_gaussian", "oscillation_score"]


def fit_zipf_slope(degree_sequence: np.ndarray,
                   min_rank: int = 1, max_rank_fraction: float = 0.25
                   ) -> float:
    """Least-squares slope of the log-log rank-frequency plot.

    Vertices are ranked by degree (descending); frequency is the degree.
    Lemma 6's derivation holds at ranks ``2^k`` spanning the head of the
    distribution, so the fit covers ranks ``[min_rank, |V+| *
    max_rank_fraction]`` where ``|V+|`` counts vertices of nonzero degree
    (the deep tail flattens due to integer degrees and is excluded, as is
    standard).
    """
    seq = np.sort(np.asarray(degree_sequence, dtype=np.float64))[::-1]
    seq = seq[seq >= 1]
    if seq.size < 4:
        raise ValueError("need at least 4 nonzero degrees to fit a slope")
    max_rank = max(int(seq.size * max_rank_fraction), min_rank + 3)
    max_rank = min(max_rank, seq.size)
    ranks = np.arange(min_rank, max_rank + 1, dtype=np.float64)
    freqs = seq[min_rank - 1:max_rank]
    x = np.log2(ranks)
    y = np.log2(freqs)
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def fit_kronecker_class_slope(degree_sequence: np.ndarray,
                              min_class_size: int = 8) -> float:
    """Measure Lemma 6's slope the way its derivation defines it.

    Lemma 6 places the popcount-``k`` vertex class at rank ``2^k`` with
    frequency ``(alpha+beta)^(L-k) * (gamma+delta)^k``, so the predicted
    slope ``log2(gamma+delta) - log2(alpha+beta)`` is the per-class decay
    of log-frequency.  Because vertex IDs of the Kronecker family encode
    their class (the popcount of the ID), we can group realized degrees by
    popcount directly and fit ``log2(mean class degree)`` against ``k``.

    ``degree_sequence[u]`` must be indexed by vertex ID (the generator's
    natural output).  Classes with fewer than ``min_class_size`` vertices
    are excluded (their means are too noisy).
    """
    seq = np.asarray(degree_sequence, dtype=np.float64)
    classes = np.bitwise_count(np.arange(seq.size, dtype=np.uint64))
    return fit_class_sums_slope(np.bincount(classes, weights=seq),
                                seq.size, min_class_size)


def fit_class_sums_slope(sums: np.ndarray, num_vertices: int,
                         min_class_size: int = 8) -> float:
    """:func:`fit_kronecker_class_slope` from the degree sum of each
    popcount class alone: ``sums[k]`` adds the degrees of the ids in
    ``[0, num_vertices)`` with ``k`` one bits.  The class sizes follow
    from ``num_vertices``, so a degree stream folds into these sums in
    ``O(log |V|)`` state (``trilliong verify``)."""
    if num_vertices < 8:
        raise ValueError("need at least 8 vertices")
    sizes = _popcount_class_sizes(num_vertices)
    sums = np.asarray(sums, dtype=np.float64)[:sizes.size]
    sums = np.pad(sums, (0, sizes.size - sums.size))
    keep = (sizes >= min_class_size) & (sums > 0)
    ks = np.nonzero(keep)[0]
    if ks.size < 2:
        raise ValueError("not enough populated classes to fit")
    means = sums[keep] / sizes[keep]
    slope, _ = np.polyfit(ks.astype(np.float64), np.log2(means), 1)
    return float(slope)


def _popcount_class_sizes(n: int) -> np.ndarray:
    """``sizes[k]``: the ids in ``[0, n)`` with ``k`` one bits.  An id
    below ``n`` agrees with it above some one bit ``b`` of ``n``, has a 0
    there and any ``b`` bits below."""
    sizes = np.zeros(n.bit_length() + 1, dtype=np.int64)
    above = 0
    for b in range(n.bit_length() - 1, -1, -1):
        if n >> b & 1:
            sizes[above:above + b + 1] += [math.comb(b, j)
                                           for j in range(b + 1)]
            above += 1
    return sizes


@dataclass(frozen=True)
class GaussianFit:
    """Moment fit of a degree distribution."""

    mean: float
    std: float
    #: Excess kurtosis; ~0 for a true Gaussian, large for heavy tails.
    excess_kurtosis: float

    @property
    def looks_gaussian(self) -> bool:
        """Heuristic normality check used by the Figure 10 tests: a
        Kronecker Zipfian has excess kurtosis orders of magnitude above a
        Gaussian's."""
        return abs(self.excess_kurtosis) < 1.0


def fit_gaussian(degree_sequence: np.ndarray) -> GaussianFit:
    """Fit mean/std and report excess kurtosis as a shape diagnostic."""
    seq = np.asarray(degree_sequence, dtype=np.float64)
    if seq.size == 0:
        raise ValueError("empty degree sequence")
    mean = float(seq.mean())
    std = float(seq.std())
    if std == 0:
        return GaussianFit(mean, 0.0, 0.0)
    z = (seq - mean) / std
    return GaussianFit(mean, std, float((z ** 4).mean() - 3.0))


def oscillation_score(degree_sequence: np.ndarray, window: int = 5,
                      min_count: int = 30) -> float:
    """RMS residual of the log-log degree plot around its local trend.

    Plain SKG's degree plot oscillates (Figure 9(a)); NSKG noise smooths it
    (Figure 9(c)).  The score is the root-mean-square deviation of
    ``log2(count)`` from a centered moving average over the log-degree
    axis, restricted to degrees with at least ``min_count`` vertices —
    the head of the plot, where the oscillation lives; the sparse tail is
    excluded because its Poisson noise would swamp the signal.
    """
    hist = degree_histogram(degree_sequence)
    keep = hist.counts >= min_count
    degrees = hist.degrees[keep].astype(np.float64)
    counts = hist.counts[keep].astype(np.float64)
    if counts.size < window + 2:
        return 0.0
    y = np.log2(counts)
    kernel = np.ones(window) / window
    trend = np.convolve(y, kernel, mode="valid")
    half = window // 2
    resid = y[half:half + trend.size] - trend
    return float(np.sqrt(np.mean(resid ** 2)))
