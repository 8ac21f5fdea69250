"""The paper's per-edge engine: Algorithms 4-5 and the Ideas of Sec. 4.3.

:class:`ReferenceGenerator` is a :class:`RecursiveVectorGenerator` whose
runs are generated by a Python loop over destinations — Algorithm 4's
draw-until-distinct scope loop around Algorithm 5's walk on a RecVec
(:func:`repro.core.recvec.determine_edge`) — instrumented with the work
counters of Figure 13 (:class:`ReferenceStats`), each of the three
Ideas switchable (:class:`IdeaToggles`).  It overrides the one per-run
hook, so everything else is the kernel's: the scope sizes, the runs and
their ``(seed, 103, block, k)`` streams.  It draws from the kernel's
distribution and is deterministic per ``(params, seed)``, but is **not**
byte-identical to the kernel (``docs/kernel.md``): the test oracle and
the engine behind the Figure 13 ablation, for scales up to about 12.

It runs in-process only: :meth:`ReferenceGenerator.recipe` raises, so a
worker pool or a checkpointed run, which rebuild a plain generator from
the recipe, refuse it instead of silently running the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .generator import (_MAX_TOPUP_ROUNDS, AdjacencyBlock, GenerationStats,
                        RecursiveVectorGenerator)
from .recvec import determine_edge

__all__ = ["IdeaToggles", "ReferenceStats", "ReferenceGenerator"]


@dataclass(frozen=True)
class IdeaToggles:
    """The three performance ideas of Section 4.3, individually togglable
    for the Figure 13 ablation.  All three default to on (full TrillionG).

    - ``reuse_recvec`` (Idea #1): build RecVec once per scope instead of
      once per edge.
    - ``reduce_recursions`` (Idea #2): recurse once per 1-bit of the
      destination (Theorem 2) instead of once per level (RMAT-style).
    - ``single_random`` (Idea #3): draw one uniform per edge and translate
      it, instead of one uniform per recursion step.
    """

    reuse_recvec: bool = True
    reduce_recursions: bool = True
    single_random: bool = True

    @classmethod
    def all_off(cls) -> "IdeaToggles":
        return cls(False, False, False)


@dataclass
class ReferenceStats(GenerationStats):
    """:class:`GenerationStats` plus Figure 13's work counters.

    ``recursion_steps`` counts Algorithm 5's steps (one per level with
    Idea #2 off), ``recvec_builds`` the RecVecs built.  A destination
    attempt is a RecVec reuse hit when it walks a RecVec built before an
    earlier attempt of its scope, a miss otherwise: ``hits + misses`` is
    the attempts, ``random_draws`` while Idea #3 is on.
    """

    recursion_steps: int = 0
    recvec_builds: int = 0
    recvec_reuse_hits: int = 0
    recvec_reuse_misses: int = 0


class ReferenceGenerator(RecursiveVectorGenerator):
    """Algorithms 4-5, one destination at a time.

    Takes :class:`RecursiveVectorGenerator`'s parameters, and ``ideas``
    (all on by default).
    """

    def __init__(self, *args, ideas: IdeaToggles | None = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ideas = ideas if ideas is not None else IdeaToggles()
        self.stats: ReferenceStats = ReferenceStats()

    def recipe(self) -> dict:
        """Refused: a generator rebuilt from a recipe runs the kernel."""
        raise ConfigurationError(
            "the reference engine runs in-process only: a worker or a "
            "checkpoint rebuilt from its recipe would run the kernel")

    def _generate_run(self, sources: np.ndarray, degrees: np.ndarray,
                      rng: np.random.Generator) -> AdjacencyBlock:
        """Algorithm 4 over the run's scopes, one destination at a time."""
        all_dests = [self._generate_scope(int(u), int(size), rng)
                     for u, size in zip(sources, degrees)]
        offsets = np.zeros(sources.size + 1, dtype=np.int64)
        np.cumsum([dests.size for dests in all_dests], out=offsets[1:])
        destinations = (np.concatenate(all_dests) if all_dests
                        else np.empty(0, np.int64))
        return AdjacencyBlock(sources.copy(), offsets, destinations)

    def _generate_scope(self, u: int, size: int,
                        rng: np.random.Generator) -> np.ndarray:
        """Algorithm 4 for one scope, honoring the Idea toggles."""
        if self.dedup and size > (self.num_vertices >> 2):
            return self._sample_scope_exact(u, size, rng)
        ideas = self.ideas
        stats = self.stats
        recvec = None
        bit_probs = None
        forced = 0
        if ideas.reuse_recvec:
            recvec, forced = self._build_recvec(u)
            if not ideas.reduce_recursions:
                bit_probs = self.process.bit_probabilities(
                    np.array([u], dtype=np.uint64))[0]
        edge_set: set[int] = set()
        attempts = 0
        max_attempts = max(size * _MAX_TOPUP_ROUNDS, _MAX_TOPUP_ROUNDS)
        while len(edge_set) < size:
            if attempts >= max_attempts:
                # Rejection stalled on a very skewed scope; finish exactly
                # (the kernel's fallback too).
                return self._sample_scope_exact(u, size, rng)
            attempts += 1
            if ideas.reuse_recvec and attempts > 1:
                stats.recvec_reuse_hits += 1
            else:
                stats.recvec_reuse_misses += 1
            if not ideas.reuse_recvec:
                recvec, forced = self._build_recvec(u)
                if not ideas.reduce_recursions:
                    bit_probs = self.process.bit_probabilities(
                        np.array([u], dtype=np.uint64))[0]
            if ideas.reduce_recursions:
                v = forced | _sample_destination_alg5(
                    recvec, rng, ideas.single_random, stats)
            else:
                v = _sample_destination_bitpeel(bit_probs, rng,
                                                ideas.single_random, stats)
            if v in edge_set:
                stats.duplicates_discarded += 1
            else:
                edge_set.add(v)
        return np.array(sorted(edge_set), dtype=np.int64)

    def _build_recvec(self, u: int) -> tuple[np.ndarray, int]:
        """RecVec of ``u`` for Algorithm 5, and the destination bits that
        are forced to 1 (to be OR-ed into every destination).

        A seed entry ``a`` or ``c`` of exactly 0 forces a bit to 1 and
        zeroes RecVec at and below that level, so the levels below can no
        longer be told apart and sigma divides by 0.  Such levels are
        taken out of the vector: they become zero-width intervals, like
        the levels forced to 0, which the walk skips.
        """
        self.stats.recvec_builds += 1
        recvec = self.process.build_recvec(u)
        if recvec[0] > 0.0:
            return recvec, 0
        probs = self.process.bit_probabilities(
            np.array([u], dtype=np.uint64))[0]
        forced = probs >= 1.0
        for x in range(self.scale - 1, -1, -1):
            recvec[x] = recvec[x + 1] * (1.0 if forced[x] else 1.0 - probs[x])
        return recvec, int(forced @ (1 << np.arange(self.scale,
                                                    dtype=np.int64)))


def _sample_destination_alg5(recvec: np.ndarray, rng: np.random.Generator,
                             single_random: bool,
                             stats: ReferenceStats) -> int:
    """One destination via Algorithm 5 (Idea #2 on, #3 togglable): one
    uniform translated down the RecVec, or a fresh one per step."""
    x = rng.uniform(0.0, recvec[-1])
    v = determine_edge(x, recvec, None if single_random
                       else lambda high: rng.uniform(0.0, high))
    steps = v.bit_count()
    stats.recursion_steps += steps
    stats.random_draws += 1 if single_random else 1 + steps
    return v


def _sample_destination_bitpeel(bit_probs: np.ndarray,
                                rng: np.random.Generator,
                                single_random: bool,
                                stats: ReferenceStats) -> int:
    """One destination via per-level quadrant selection (Idea #2 off).

    With ``single_random`` the one uniform is repeatedly rescaled through
    the per-level inverse CDF; without it, a fresh uniform decides each
    level (the RMAT-style process).
    """
    levels = bit_probs.size
    x = rng.random() if single_random else 0.0
    if single_random:
        stats.random_draws += 1
    v = 0
    for level in range(levels - 1, -1, -1):
        p = bit_probs[level]
        # Degenerate level (seed entry of exactly 0 or 1): the bit is
        # forced, so consume no randomness and leave x untouched.
        # Without the short-circuit, the single-uniform rescale divides
        # by zero once float rounding pushes x to exactly 1.0 at a
        # p == 0 level ((x - 1.0) / 0.0), and the fresh-uniform path
        # burns a draw deciding a certain event.
        if p >= 1.0:
            v |= 1 << level
            continue
        if p <= 0.0:
            continue
        stats.recursion_steps += 1
        if single_random:
            if x < 1.0 - p:
                bit = 0
                x = x / (1.0 - p)
            else:
                bit = 1
                x = (x - (1.0 - p)) / p
        else:
            bit = 1 if rng.random() < p else 0
            stats.random_draws += 1
        v |= bit << level
    return v
