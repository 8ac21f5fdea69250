"""Seed probability matrices for RMAT / Kronecker-family generators.

A seed matrix ``K`` is an ``n x n`` matrix of non-negative reals summing to
1.  The full edge-probability matrix of a graph with ``|V| = n**L`` vertices
is the L-fold Kronecker power ``K ⊗ K ⊗ ... ⊗ K`` (Definition 1 in the
paper).  RMAT is the 2x2 case, where the entries are conventionally named
``alpha, beta, gamma, delta`` (Figure 1(a)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import SeedMatrixError

__all__ = ["SeedMatrix", "GRAPH500", "UNIFORM"]

_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SeedMatrix:
    """An ``n x n`` seed probability matrix.

    Parameters
    ----------
    entries:
        Square matrix of non-negative floats summing to 1.0 (within a small
        tolerance; the matrix is renormalized exactly on construction so that
        downstream CDFs close to 1).

    Examples
    --------
    >>> k = SeedMatrix.rmat(0.57, 0.19, 0.19, 0.05)
    >>> k.alpha, k.delta
    (0.57, 0.05)
    >>> k.order
    2
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise SeedMatrixError(
                f"seed matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise SeedMatrixError("seed matrix must be at least 2x2")
        if np.any(arr < 0):
            raise SeedMatrixError("seed matrix entries must be non-negative")
        total = float(arr.sum())
        if not math.isclose(total, 1.0, abs_tol=_SUM_TOLERANCE):
            raise SeedMatrixError(
                f"seed matrix entries must sum to 1.0, got {total}")
        # Entries are stored verbatim: renormalizing a sum that is off by
        # only representation noise would perturb exact user inputs (and
        # the paper's worked examples).  Downstream CDFs are built from row
        # sums, so a 1-ulp total deficit is harmless.
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rmat(cls, alpha: float, beta: float, gamma: float,
             delta: float) -> "SeedMatrix":
        """Build the 2x2 RMAT seed ``[[alpha, beta], [gamma, delta]]``."""
        return cls(np.array([[alpha, beta], [gamma, delta]]))

    @classmethod
    def graph500(cls) -> "SeedMatrix":
        """The Graph500 standard seed ``[0.57, 0.19; 0.19, 0.05]``."""
        return cls.rmat(0.57, 0.19, 0.19, 0.05)

    @classmethod
    def uniform(cls, order: int = 2) -> "SeedMatrix":
        """All-equal entries: the Erdős–Rényi special case (Sec. 8)."""
        return cls(np.full((order, order), 1.0 / (order * order),
                           dtype=np.float64))

    # -- basic views -------------------------------------------------------

    @property
    def order(self) -> int:
        """Side length ``n`` of the matrix."""
        return self.entries.shape[0]

    @property
    def is_rmat(self) -> bool:
        """True for the 2x2 (RMAT) case."""
        return self.order == 2

    def _require_rmat(self) -> None:
        if not self.is_rmat:
            raise SeedMatrixError(
                "this operation is defined only for 2x2 (RMAT) seeds")

    @property
    def alpha(self) -> float:
        self._require_rmat()
        return float(self.entries[0, 0])

    @property
    def beta(self) -> float:
        self._require_rmat()
        return float(self.entries[0, 1])

    @property
    def gamma(self) -> float:
        self._require_rmat()
        return float(self.entries[1, 0])

    @property
    def delta(self) -> float:
        self._require_rmat()
        return float(self.entries[1, 1])

    def as_tuple(self) -> tuple[float, float, float, float]:
        """Return ``(alpha, beta, gamma, delta)`` for a 2x2 seed."""
        return (self.alpha, self.beta, self.gamma, self.delta)

    # -- derived quantities ------------------------------------------------

    def row_sums(self) -> np.ndarray:
        """Per-row sums; for 2x2 these are ``(alpha+beta, gamma+delta)``,
        the factors of Lemma 1."""
        return self.entries.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        """Per-column sums; for 2x2 these are ``(alpha+gamma, beta+delta)``."""
        return self.entries.sum(axis=0)

    def kronecker_power(self, levels: int) -> np.ndarray:
        """Materialize ``K ⊗ ... ⊗ K`` (``levels`` factors).

        Only usable for small graphs — the result has ``order**levels`` rows
        (this is exactly the AES scalability problem the paper identifies).
        Used by tests to cross-check closed forms against brute force.
        """
        if levels < 1:
            raise ValueError("levels must be >= 1")
        out = self.entries
        for _ in range(levels - 1):
            out = np.kron(out, self.entries)
        return out

    def out_zipf_slope(self) -> float:
        """Zipfian slope of the out-degree distribution this seed induces:
        ``log2(gamma+delta) - log2(alpha+beta)`` (Lemma 6 / Table 3)."""
        self._require_rmat()
        return math.log2(self.gamma + self.delta) - math.log2(
            self.alpha + self.beta)

    def in_zipf_slope(self) -> float:
        """Zipfian slope of the in-degree distribution:
        ``log2(beta+delta) - log2(alpha+gamma)`` (Lemma 6 / Table 3)."""
        self._require_rmat()
        return math.log2(self.beta + self.delta) - math.log2(
            self.alpha + self.gamma)

    def expected_ones_fraction(self) -> float:
        """Exact expected fraction of 1 bits in a destination vertex ID.

        At each recursion level the RMAT process picks the "destination = 1"
        half (beta or delta quadrant) with marginal probability
        ``beta + delta``, independently per level, so the expected popcount
        of a generated destination is ``(beta + delta) * log|V|``.  This is
        the quantity Idea #2 exploits: the recursive vector model recurses
        once per 1 bit instead of once per level.  For the Graph500 seed the
        fraction is 0.24, i.e. ~4.17x fewer recursions than RMAT.
        """
        self._require_rmat()
        return self.beta + self.delta

    def lemma5_ones_fraction(self) -> float:
        """The paper's printed Lemma 5 estimate of the 1-bit fraction.

        Lemma 5 approximates the destination popcount as
        ``log|V| / ((a+b)/b + 1 - b*(c+d)/(d*(a+b)))``.  The paper quotes
        ``log|V|/4.917`` for the Graph500 seed; the printed formula itself
        evaluates to ``log|V|/3.8`` and the exact marginal (see
        :meth:`expected_ones_fraction`) is ``log|V|/4.167`` — all three
        agree that recursions shrink ~4-5x.  We expose the printed formula
        for the EXPERIMENTS.md comparison and use the exact marginal in
        performance accounting.
        """
        self._require_rmat()
        a, b, c, d = self.as_tuple()
        if b == 0 or d == 0 or (a + b) == 0:
            return self.expected_ones_fraction()
        denominator = (a + b) / b + 1 - (b * (c + d)) / (d * (a + b))
        return 1.0 / denominator

    def transpose(self) -> "SeedMatrix":
        """Seed with source/destination roles swapped (AVS-I from AVS-O)."""
        return SeedMatrix(self.entries.T.copy())

    def __eq__(self, other: object) -> bool:
        """Exact: equal seeds draw the same bytes and hash alike.  A
        caller that wants a tolerance compares ``entries`` with
        ``np.allclose`` itself."""
        if not isinstance(other, SeedMatrix):
            return NotImplemented
        return bool(np.array_equal(self.entries, other.entries))

    def __hash__(self) -> int:
        return hash(self.entries.tobytes())

    def __str__(self) -> str:
        rows = "; ".join(
            ", ".join(f"{x:.4g}" for x in row) for row in self.entries)
        return f"SeedMatrix[{rows}]"


#: The Graph500 standard seed matrix used throughout the paper's evaluation.
GRAPH500 = SeedMatrix.rmat(0.57, 0.19, 0.19, 0.05)

#: The uniform seed (Erdős–Rényi equivalent).
UNIFORM = SeedMatrix.uniform()
