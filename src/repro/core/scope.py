"""Stochastic scope sizing — Theorem 1.

The size of the scope ``S(u, V)`` (the out-degree of ``u``) is the number of
successes among ``n = |E|`` Bernoulli trials each succeeding with probability
``p = P(u->)``.  Drawn jointly for every scope, the ``|E|`` trials are one
multinomial over the sources, and Lemma 1 factorises it over source
digits: digit ``l`` of a draw's source is ``s`` with probability row sum
``s`` of the seed over its mass, whatever its other digits are
(``alpha_l + beta_l`` for a 0 bit of a 2x2 seed; Lemma 7 keeps that per
level under NSKG noise).  So the multinomial is a recursive split by
conditional binomials, which :func:`split_scope_sizes` performs below one
node of the source tree — the ``"split"`` method, whose sizes add up to
``|E|`` exactly.

Theorem 1 approximates each marginal Binomial(n, p) independently with
``Normal(np, np(1-p))`` (``"normal"``, the paper's method), whose sum only
concentrates around ``|E|``.  TeG's failure (Figure 8) comes precisely from
replacing this stochastic draw with the deterministic mean, so the sampler
also exposes a ``"deterministic"`` method for that baseline.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_scope_sizes", "split_scope_sizes", "SCOPE_SIZE_METHODS",
           "DEGREE_METHODS"]

#: Methods that size each scope on its own, from its own probability.
SCOPE_SIZE_METHODS = ("normal", "deterministic")

#: Every ``degree_method`` of the AVS generator; ``"split"`` draws all
#: scopes jointly and is the default.
DEGREE_METHODS = ("split",) + SCOPE_SIZE_METHODS


def sample_scope_sizes(probabilities: np.ndarray, num_edges: int,
                       rng: np.random.Generator,
                       method: str = "normal",
                       max_size: int | None = None) -> np.ndarray:
    """Draw scope sizes for a batch of scopes, each on its own.

    Parameters
    ----------
    probabilities:
        ``p_i = P(u_i ->)`` for each scope (Lemma 1, or Lemma 7 under
        noise).
    num_edges:
        ``n = |E|``, the number of Bernoulli trials.
    rng:
        Source of randomness (one stream per worker keeps generation
        deterministic and partition-independent).
    method:
        - ``"normal"`` — Theorem 1's Normal(np, np(1-p)) approximation,
          rounded to the nearest integer (the paper's method);
        - ``"deterministic"`` — ``round(np)`` with no randomness (the TeG
          baseline's static early fixing).
    max_size:
        Upper clip, defaulting to no clip.  Callers pass ``|V|`` because a
        scope of a simple directed graph cannot hold more distinct edges
        than it has cells.

    Returns
    -------
    numpy.ndarray of int64 sizes, clipped to ``[0, max_size]``.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("scope probabilities must lie in [0, 1]")
    mean = num_edges * p
    if method == "normal":
        std = np.sqrt(mean * (1.0 - p))
        sizes = np.rint(rng.normal(mean, std)).astype(np.int64)
    elif method == "deterministic":
        sizes = np.rint(mean).astype(np.int64)
    else:
        raise ValueError(
            f"unknown scope size method {method!r}; "
            f"expected one of {SCOPE_SIZE_METHODS}")
    np.maximum(sizes, 0, out=sizes)
    if max_size is not None:
        np.minimum(sizes, max_size, out=sizes)
    return sizes


def split_scope_sizes(count: int, split_probabilities: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """The sizes of the ``n^k`` scopes below one node of the source tree
    that holds ``count`` draws, ``(k, n)`` the shape of
    ``split_probabilities``.

    Level by level from the node down, every node sends its ``c`` draws
    to its ``n`` children by ``n - 1`` conditional binomials: child
    ``t < n - 1`` gets ``Binomial(c', p_t / (p_t + ... + p_{n-1}))`` of
    the ``c'`` its elder siblings left, the last child the rest.  That is
    one ``rng.binomial`` call per level and child over the level's nodes
    in order: at ``n = 2``, one ``Binomial(c, p_0)`` per node (``p``
    adds up to one).  The sizes add up to ``count``.
    """
    counts = np.array([count], dtype=np.int64)
    for p in split_probabilities:
        children = []
        for t in range(p.size - 1):
            share = p[t] / p[t:].sum() if t else p[0]
            children.append(rng.binomial(counts, share))
            counts = counts - children[-1]
        children.append(counts)
        counts = np.column_stack(children).ravel()
    return counts
