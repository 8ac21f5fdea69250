"""The AVS (A Vertex Scope) generator — the recursive vector model engine.

This is the core of TrillionG (Sections 4-5): for each source vertex ``u``
it draws the scope size ``d+(u)`` (Theorem 1), builds ``RecVec`` (Lemma 2 /
Lemma 8), and samples that many *distinct* destinations (Theorem 2,
Algorithm 5), requiring only ``O(dmax)`` working memory.

Engines
-------
``bitwise``
    The production kernel.  ``P(v|u)`` factorises over destination bits
    (Lemma 3, see :mod:`repro.core.probability`), so the bits are
    independent draws — taken seven at a time from chained conditional
    alias tables (:class:`repro.core.tables.ScopeSampler`), batched in
    numpy over a block of sources.
``reference``
    Paper-faithful per-edge Python loop (Algorithms 4-5), instrumented with
    recursion/draw counters and the three Idea toggles — the test oracle
    and the engine behind the Figure 13 ablation.

Both are deterministic per ``(params, seed)`` and draw from the same
distribution, but are **not** byte-identical to each other — they consume
their streams in different shapes (``docs/kernel.md``).  Golden digests
are frozen in ``tests/core/test_rng_golden.py``.

Determinism
-----------
Randomness is keyed by ``(seed, tag, block_index)`` where blocks are fixed
``block_size``-aligned ranges of source vertices, so the generated graph is
a pure function of the configuration — independent of how many workers
generate it or how the vertex range is partitioned.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError, GenerationError, SeedMatrixError
from ..telemetry import RECURSION_BUCKETS, registry
from .process import EdgeProcess, make_process
from .rng import stream
from .scope import sample_scope_sizes
from .seed import GRAPH500, SeedMatrix
from .tables import ScopeSampler

__all__ = [
    "IdeaToggles",
    "GenerationStats",
    "RecursiveVectorGenerator",
    "AdjacencyBlock",
]

# Stream tags: keep distinct so no two purposes share a stream.
_TAG_NOISE = 101
_TAG_DEGREE = 102
_TAG_EDGE = 103

_ENGINES = ("bitwise", "reference")
_MAX_TOPUP_ROUNDS = 200


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
class GenerationStats:
    """Counters accumulated while generating.  ``random_draws`` counts
    every uniform a destination sampler consumes, top-up redraws included
    (not the ``|V|`` scores of the exact fallback for saturated scopes);
    ``recursion_steps`` and ``recvec_builds`` are reference-engine only."""

    edges: int = 0
    duplicates_discarded: int = 0
    recursion_steps: int = 0
    random_draws: int = 0
    recvec_builds: int = 0
    max_scope_size: int = 0

    def merge(self, other: "GenerationStats") -> None:
        self.edges += other.edges
        self.duplicates_discarded += other.duplicates_discarded
        self.recursion_steps += other.recursion_steps
        self.random_draws += other.random_draws
        self.recvec_builds += other.recvec_builds
        self.max_scope_size = max(self.max_scope_size, other.max_scope_size)


@dataclass
class AdjacencyBlock:
    """One generated block: CSR-like triplet over ``block_size`` sources.

    ``destinations[offsets[j]:offsets[j+1]]`` are the (sorted, distinct)
    out-neighbours of ``sources[j]``.
    """

    sources: np.ndarray       # (n,) vertex ids
    offsets: np.ndarray       # (n+1,) int64 prefix sums of degrees
    destinations: np.ndarray  # (total,) int64

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def num_edges(self) -> int:
        return int(self.offsets[-1])

    def iter_adjacency(self) -> Iterator[tuple[int, np.ndarray]]:
        for j, u in enumerate(self.sources):
            yield int(u), self.destinations[self.offsets[j]:
                                            self.offsets[j + 1]]

    def edge_array(self) -> np.ndarray:
        """Materialize as an ``(m, 2)`` edge array."""
        src = np.repeat(self.sources.astype(np.int64), self.degrees)
        return np.column_stack([src, self.destinations])


def _require_scope_lines(matrix: SeedMatrix, direction: str) -> None:
    """Refuse a seed with an all-zero scope line: row ``i`` for AVS-O,
    column ``i`` for AVS-I (``matrix`` is already transposed for it).
    A scope through that line has no destination-bit distribution to
    draw from.  :class:`SeedMatrix` itself allows such seeds, which the
    RMAT-family models use."""
    line = "row" if direction == "out" else "column"
    for i, total in enumerate(matrix.row_sums()):
        if total <= 0.0:
            raise SeedMatrixError(
                f"seed {line} {i} is all zero: a direction={direction!r} "
                f"scope through it has no destination distribution")


class RecursiveVectorGenerator:
    """TrillionG's per-scope generator over a range of source vertices.

    Parameters
    ----------
    scale:
        ``log2(|V|)``.
    edge_factor:
        ``|E| / |V|`` (Graph500 default 16); overridden by ``num_edges``.
    seed_matrix:
        2x2 seed; defaults to the Graph500 standard matrix.
    num_edges:
        Explicit ``|E|`` target (expected value; the realized count is
        stochastic per Theorem 1).
    noise:
        NSKG noise parameter ``N`` (0 disables noise).
    direction:
        ``"out"`` for AVS-O (scopes are rows; yields out-adjacency) or
        ``"in"`` for AVS-I (scopes are columns; yields in-adjacency).
    engine:
        ``"bitwise"`` (default) or ``"reference"``.
    ideas:
        Idea toggles (reference engine only).
    dedup:
        Eliminate repeat edges within each scope and top up to the drawn
        scope size (Algorithm 2's set semantics).  Default True.
    degree_method:
        Theorem 1 approximation, see
        :func:`repro.core.scope.sample_scope_sizes`.
    seed:
        Master random seed.
    block_size:
        Number of consecutive sources generated per batch; randomness is
        keyed per block, so this also fixes the determinism granularity.
        A key ``row << scale | dest`` must fit an int64, so
        ``scale + (block_size - 1).bit_length() <= 63``.
    """

    def __init__(self, scale: int, edge_factor: int = 16,
                 seed_matrix: SeedMatrix | None = None, *,
                 num_edges: int | None = None,
                 noise: float = 0.0,
                 direction: str = "out",
                 engine: str = "bitwise",
                 ideas: IdeaToggles | None = None,
                 dedup: bool = True,
                 degree_method: str = "normal",
                 seed: int = 0,
                 block_size: int = 4096) -> None:
        if scale < 1:
            raise ConfigurationError("scale must be >= 1")
        if scale > 56:
            raise ConfigurationError(
                "scale > 56 would overflow int64 destination packing")
        if direction not in ("out", "in"):
            raise ConfigurationError("direction must be 'out' or 'in'")
        if engine not in _ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {_ENGINES}")
        if block_size < 1:
            raise ConfigurationError("block_size must be positive")
        # A block's keys pack ``row << scale | dest`` into a signed int64.
        if scale + (block_size - 1).bit_length() > 63:
            raise ConfigurationError(
                f"scale {scale} leaves {63 - scale} bits of an int64 key "
                f"for the row ids of block_size {block_size}")
        self.scale = scale
        self.num_vertices = 1 << scale
        self.num_edges = (num_edges if num_edges is not None
                          else edge_factor * self.num_vertices)
        if self.num_edges < 1:
            raise ConfigurationError("num_edges must be positive")
        base = seed_matrix if seed_matrix is not None else GRAPH500
        self.seed_matrix = base
        self.direction = direction
        matrix = base if direction == "out" else base.transpose()
        _require_scope_lines(matrix, direction)
        self.engine = engine
        self.ideas = ideas if ideas is not None else IdeaToggles()
        self.dedup = dedup
        self.degree_method = degree_method
        self.seed = seed
        self.noise = noise
        self.block_size = block_size
        self.process: EdgeProcess = make_process(
            matrix, scale, noise, stream(seed, _TAG_NOISE))
        self.stats = GenerationStats()
        # Built by the first block that draws: ``degrees()``-only callers
        # (partitioning) never pay for the tables.
        self._sampler: ScopeSampler | None = None

    # ------------------------------------------------------------------
    # Degree (scope size) sampling — Theorem 1
    # ------------------------------------------------------------------

    def block_degrees(self, block_index: int) -> np.ndarray:
        """Scope sizes for every source in block ``block_index``."""
        sources = self._block_sources(block_index)
        probs = self.process.row_probabilities(sources)
        rng = stream(self.seed, _TAG_DEGREE, block_index)
        # A scope of distinct edges cannot exceed its |V| cells; without
        # dedup, repeats are allowed and no cap applies.
        max_size = self.num_vertices if self.dedup else None
        return sample_scope_sizes(probs, self.num_edges, rng,
                                  method=self.degree_method,
                                  max_size=max_size)

    def degrees(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Scope sizes for sources in ``[start, stop)`` (out-degrees for
        AVS-O, in-degrees for AVS-I)."""
        start, stop = self._check_range(start, stop)
        if start == stop:
            return np.empty(0, np.int64)
        chunks = []
        for block in range(start // self.block_size,
                           (stop - 1) // self.block_size + 1):
            sizes = self.block_degrees(block)
            lo = max(start - block * self.block_size, 0)
            hi = min(stop - block * self.block_size, self.block_size)
            chunks.append(sizes[lo:hi])
        return np.concatenate(chunks) if chunks else np.empty(0, np.int64)

    # ------------------------------------------------------------------
    # Block generation
    # ------------------------------------------------------------------

    def generate_block(self, block_index: int) -> AdjacencyBlock:
        """Generate all scopes of one block (Algorithm 4, batched)."""
        sources = self._block_sources(block_index)
        degrees = self.block_degrees(block_index)
        rng = stream(self.seed, _TAG_EDGE, block_index)
        before = (self.stats.random_draws, self.stats.recvec_builds,
                  self.stats.duplicates_discarded)
        if self.engine == "reference":
            block = self._generate_block_reference(sources, degrees, rng)
        else:
            block = self._generate_block_bitwise(sources, degrees, rng)
        self.stats.edges += block.num_edges
        if degrees.size:
            self.stats.max_scope_size = max(self.stats.max_scope_size,
                                            int(degrees.max()))
        self._record_block_metrics(block, degrees, before)
        return block

    def _record_block_metrics(self, block: AdjacencyBlock,
                              degrees: np.ndarray,
                              before: tuple[int, int, int]) -> None:
        """Publish per-block telemetry (no-op when telemetry is off).

        Aggregation is vectorized per block — popcounts and bincounts over
        arrays, then a handful of ``observe_bulk`` calls — so the cost is
        O(block) numpy work, never a per-edge Python loop.  Nothing here
        touches the RNG streams, so generated bytes are identical with
        telemetry on or off.
        """
        reg = registry()
        if not reg.enabled:
            return
        draws0, builds0, dups0 = before
        stats = self.stats
        draws = stats.random_draws - draws0
        builds = stats.recvec_builds - builds0
        reg.counter("generator.blocks").inc()
        reg.counter("generator.edges").inc(block.num_edges)
        reg.counter("generator.duplicates_discarded").inc(
            stats.duplicates_discarded - dups0)
        reg.counter("generator.random_draws").inc(draws)
        reg.counter("generator.recvec_builds").inc(builds)
        if self.engine == "reference":
            # Idea #1 effectiveness: every draw beyond the first per scope
            # reuses an already-built RecVec.  Builds that served no draw
            # (zero-degree scopes) appear only in recvec_builds, keeping
            # hits + misses == random_draws exact.
            hits = max(draws - builds, 0)
            reg.counter("generator.recvec_reuse_hits").inc(hits)
            reg.counter("generator.recvec_reuse_misses").inc(draws - hits)
        if block.destinations.size:
            # Theorem 2: Algorithm 5 recurses once per 1-bit of the
            # destination, so the per-edge recursion count is popcount(v).
            counts = np.bincount(_popcount64(block.destinations))
            values = np.nonzero(counts)[0]
            reg.histogram("generator.recursions_per_edge",
                          bounds=RECURSION_BUCKETS).observe_bulk(
                values.tolist(), counts[values].tolist())
        if degrees.size:
            values, counts = np.unique(degrees, return_counts=True)
            reg.histogram("generator.scope_size").observe_bulk(
                values.tolist(), counts.tolist())

    def iter_blocks(self, start: int = 0,
                    stop: int | None = None) -> Iterator[AdjacencyBlock]:
        """Yield :class:`AdjacencyBlock` objects covering ``[start, stop)``.

        Partial first/last blocks are generated whole (determinism is per
        block) and then sliced to the requested range.
        """
        start, stop = self._check_range(start, stop)
        if start == stop:
            return
        for block_index in range(start // self.block_size,
                                 (stop - 1) // self.block_size + 1):
            block = self.generate_block(block_index)
            base = block_index * self.block_size
            lo = max(start - base, 0)
            hi = min(stop - base, len(block.sources))
            if lo == 0 and hi == len(block.sources):
                yield block
            else:
                offs = block.offsets
                dests = block.destinations[offs[lo]:offs[hi]]
                yield AdjacencyBlock(block.sources[lo:hi],
                                     offs[lo:hi + 1] - offs[lo],
                                     dests)

    def iter_adjacency(self, start: int = 0, stop: int | None = None
                       ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(vertex, neighbours)`` pairs over ``[start, stop)``.

        For AVS-O the pair is ``(source, out-neighbours)``; for AVS-I it is
        ``(destination, in-neighbours)``.
        """
        for block in self.iter_blocks(start, stop):
            yield from block.iter_adjacency()

    def edges(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Materialize edges for scopes in ``[start, stop)`` as ``(m, 2)``
        ``(source, destination)`` rows.  AVS-I output is flipped back to
        (source, destination) order."""
        parts = [block.edge_array() for block in self.iter_blocks(start, stop)]
        if parts:
            out = np.concatenate(parts)
        else:
            out = np.empty((0, 2), dtype=np.int64)
        if self.direction == "in":
            out = out[:, ::-1]
        return out

    # ------------------------------------------------------------------
    # Bitwise engine (the production kernel)
    # ------------------------------------------------------------------

    def _generate_block_bitwise(self, sources: np.ndarray,
                                degrees: np.ndarray,
                                rng: np.random.Generator) -> AdjacencyBlock:
        # Rejection top-up coupon-collects once a scope exceeds ~1/4 of
        # its row (small scales only, where the hub's expected degree
        # ``|E| * P(u->)`` nears ``|V|``): sample those scopes exactly.
        saturated = degrees > (self.num_vertices >> 2)
        if self.dedup and saturated.any():
            return self._generate_block_with_saturated(sources, degrees,
                                                       saturated, rng)
        # Keys are ``row << scale | dest``: one sort orders the block.
        keys = self._draw_keys(sources, degrees, rng)
        keys.sort()
        counts = degrees
        if self.dedup:
            keys, counts, dups = self._dedup_topup(keys, degrees, rng,
                                                   sources)
            self.stats.duplicates_discarded += dups
        offsets = np.zeros(sources.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return AdjacencyBlock(sources, offsets,
                              keys & np.int64(self.num_vertices - 1))

    def _draw_keys(self, sources: np.ndarray, counts: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """``counts[j]`` keys ``j << scale | destination`` per source, rows
        in order — the one place the kernel draws."""
        if self._sampler is None:
            self._sampler = ScopeSampler(self.process)
        keys = self._sampler.keys(sources, counts, self.scale, rng)
        self.stats.random_draws += keys.size * self._sampler.uniforms_per_edge
        return keys

    def _dedup_topup(self, keys: np.ndarray, degrees: np.ndarray,
                     rng: np.random.Generator, sources: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, int]:
        """Per-scope duplicate elimination with stochastic top-up.

        Implements Algorithm 2's ``while count(edgeSet) <= |S|`` loop for a
        whole block at once: duplicates are dropped (set union), shortfalls
        are refilled by drawing again, until every scope reaches its size.
        ``keys`` are the sorted first-pass keys ``row << scale | dest``.
        They are sorted once, and a round costs what it draws: only the
        rows still short are drawn, their candidates are looked up in the
        first-pass keys and in ``extra`` (the sorted keys earlier rounds
        added), and the fresh ones are merged into ``extra``.
        A round that draws only duplicates is just a round; scopes still
        short after ``_MAX_TOPUP_ROUNDS`` (a row whose support is smaller
        than its size, or so skewed that the last distinct draws are a
        coupon-collector problem) are finished by the exact PPSWOR sampler.
        Returns the sorted distinct keys, their count per row, and the
        number of duplicates discarded.
        """
        shift = self.scale
        low = np.int64(self.num_vertices - 1)
        first, repeats = _split_repeats(keys)
        duplicates = repeats.size
        have = degrees - np.bincount(repeats >> shift, minlength=degrees.size)
        extra = np.empty(0, dtype=np.int64)
        for _ in range(_MAX_TOPUP_ROUNDS):
            short = np.flatnonzero(have != degrees)
            if not short.size:
                break
            shortfall = degrees[short] - have[short]
            drawn = self._draw_keys(sources[short], shortfall, rng)
            drawn.sort()
            drawn = _split_repeats(drawn)[0]
            rows = drawn >> shift
            # Rows of ``short`` back to rows of the block: ``short``
            # ascends, so the keys stay sorted.
            drawn = short[rows] << shift | drawn & low
            fresh = _absent(first, drawn) & _absent(extra, drawn)
            extra = _merge_sorted(extra, drawn[fresh])
            have[short] += np.bincount(rows[fresh], minlength=short.size)
            duplicates += int(shortfall.sum()) - int(fresh.sum())
        keys = _merge_sorted(first, extra)
        # Rounds exhausted: finish the remaining scopes exactly, all of
        # them in one fold.
        stalled = np.flatnonzero(have != degrees)
        if stalled.size:
            exact = [row << shift | self._sample_scope_exact(
                int(sources[row]), int(degrees[row]), rng) for row in stalled]
            have[stalled] = [part.size for part in exact]
            gone = np.zeros(degrees.size, dtype=bool)
            gone[stalled] = True
            keys = _merge_sorted(keys[~gone[keys >> shift]],
                                 np.concatenate(exact))
        return keys, have, duplicates

    # ------------------------------------------------------------------
    # Saturated scopes (small-scale hubs whose size approaches |V|)
    # ------------------------------------------------------------------

    def _sample_scope_exact(self, u: int, size: int,
                            rng: np.random.Generator) -> np.ndarray:
        """Exact without-replacement sample of ``size`` destinations.

        Materializes the row PMF (product of per-bit Bernoulli factors) and
        takes a PPSWOR sample via the Gumbel top-k trick — distributionally
        identical to the paper's draw-until-distinct loop, but O(|V| log |V|)
        instead of coupon-collector time.  Only reachable at small scales,
        so the O(|V|) row never exceeds a few MB.
        """
        if self.scale > 26:
            raise GenerationError(
                "saturated scope at a scale too large to materialize; "
                "this cannot occur for edge factors <= |V|^(1/4)")
        bit_probs = self.process.bit_probabilities(
            np.array([u], dtype=np.uint64))[0]
        pmf = np.array([1.0])
        for x in range(self.scale):
            p = bit_probs[x]
            pmf = np.concatenate([pmf * (1.0 - p), pmf * p])
        # One uniform per destination, as ever; only the support is
        # scored, since a destination of probability 0 scores -inf.
        uniforms = rng.random(pmf.size)
        support = np.flatnonzero(pmf != 0.0)   # 10x faster than on floats
        size = min(size, support.size)
        with np.errstate(divide="ignore"):
            scores = (np.log(pmf[support])
                      - np.log(-np.log(uniforms[support])))
        cut = support.size - size
        top = support[np.argpartition(scores, cut)[cut:]]
        return np.sort(top).astype(np.int64)

    def _generate_block_with_saturated(self, sources: np.ndarray,
                                       degrees: np.ndarray,
                                       saturated: np.ndarray,
                                       rng: np.random.Generator
                                       ) -> AdjacencyBlock:
        """Split a block into normal scopes (batched path) and saturated
        scopes (exact path), then merge back in source order."""
        light_degrees = np.where(saturated, 0, degrees)
        light = self._generate_block_bitwise(sources, light_degrees, rng)
        per_source = [light.destinations[light.offsets[j]:
                                         light.offsets[j + 1]]
                      for j in range(sources.size)]
        for j in np.nonzero(saturated)[0]:
            per_source[j] = self._sample_scope_exact(int(sources[j]),
                                                     int(degrees[j]), rng)
        counts = np.array([d.size for d in per_source], dtype=np.int64)
        offsets = np.zeros(sources.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return AdjacencyBlock(sources, offsets, np.concatenate(per_source))

    # ------------------------------------------------------------------
    # Reference engine (Algorithms 4-5, instrumented, idea toggles)
    # ------------------------------------------------------------------

    def _generate_block_reference(self, sources: np.ndarray,
                                  degrees: np.ndarray,
                                  rng: np.random.Generator) -> AdjacencyBlock:
        all_dests: list[np.ndarray] = []
        counts = np.empty(sources.size, dtype=np.int64)
        for j, u in enumerate(sources):
            dests = self._generate_scope_reference(int(u), int(degrees[j]),
                                                   rng)
            counts[j] = dests.size
            all_dests.append(dests)
        offsets = np.zeros(sources.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        destinations = (np.concatenate(all_dests) if all_dests
                        else np.empty(0, np.int64))
        return AdjacencyBlock(sources.copy(), offsets, destinations)

    def _generate_scope_reference(self, u: int, size: int,
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
            recvec, forced = self._build_recvec_reference(u)
            if not ideas.reduce_recursions:
                bit_probs = self.process.bit_probabilities(
                    np.array([u], dtype=np.uint64))[0]
        edge_set: set[int] = set()
        attempts = 0
        max_attempts = max(size * _MAX_TOPUP_ROUNDS, _MAX_TOPUP_ROUNDS)
        while len(edge_set) < size:
            if attempts >= max_attempts:
                # Rejection stalled on a very skewed scope; finish exactly
                # (same fallback as the bitwise engine).
                return self._sample_scope_exact(u, size, rng)
            attempts += 1
            if not ideas.reuse_recvec:
                recvec, forced = self._build_recvec_reference(u)
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

    def _build_recvec_reference(self, u: int) -> tuple[np.ndarray, int]:
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

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _block_sources(self, block_index: int) -> np.ndarray:
        lo = block_index * self.block_size
        hi = min(lo + self.block_size, self.num_vertices)
        if lo >= self.num_vertices:
            raise ValueError(f"block {block_index} is out of range")
        # int64, the AdjacencyBlock ID convention: the bit-twiddling
        # consumers (recvec builds, bit probabilities) re-cast to uint64
        # themselves.
        return np.arange(lo, hi, dtype=np.int64)

    def _check_range(self, start: int, stop: int | None) -> tuple[int, int]:
        if stop is None:
            stop = self.num_vertices
        if not (0 <= start <= stop <= self.num_vertices):
            raise ValueError(
                f"invalid scope range [{start}, {stop}) for "
                f"|V| = {self.num_vertices}")
        return start, stop


def _popcount64(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of non-negative int64 values."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values)
    # SWAR fallback for numpy < 2.0.
    v = values.astype(np.uint64)
    v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
    v = ((v & np.uint64(0x3333333333333333))
         + ((v >> np.uint64(2)) & np.uint64(0x3333333333333333)))
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((v * np.uint64(0x0101010101010101))
            >> np.uint64(56)).astype(np.int64)


def _split_repeats(sorted_keys: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of a sorted array, and one entry per repeat:
    one adjacent compare, no hashing as in ``np.unique``."""
    first = np.empty(sorted_keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    repeats = sorted_keys[~first]    # before the large copy: lower peak
    return sorted_keys[first], repeats


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two sorted, disjoint key arrays.  The stable sort
    is timsort, which finds the two runs and merges them in linear time
    (a quicksort of the concatenation would sort all of it again)."""
    if not b.size:
        return a
    if not a.size:
        return b
    merged = np.concatenate([a, b])
    merged.sort(kind="stable")
    return merged


def _absent(sorted_keys: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Mask of the ``candidates`` that do not occur in ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.ones(candidates.size, dtype=bool)
    pos = np.searchsorted(sorted_keys, candidates)
    return sorted_keys[np.minimum(pos, sorted_keys.size - 1)] != candidates


def _sample_destination_alg5(recvec: np.ndarray, rng: np.random.Generator,
                             single_random: bool,
                             stats: GenerationStats) -> int:
    """One destination via Algorithm 5 (Ideas #2 on, #3 togglable)."""
    top = len(recvec) - 1
    x = rng.uniform(0.0, recvec[top])
    stats.random_draws += 1
    v = 0
    last_k = top
    while x >= recvec[0] and last_k > 0:
        k = min(bisect_right(recvec, x) - 1, last_k - 1)
        # The clamp can land on a zero-width interval (a forced bit, where
        # sigma is 0): move on to the next interval that has mass.
        while k >= 0 and recvec[k + 1] <= recvec[k]:
            k -= 1
        if k < 0:
            break
        stats.recursion_steps += 1
        if single_random:
            sigma = (recvec[k + 1] - recvec[k]) / recvec[k]
            x = (x - recvec[k]) / sigma
        else:
            x = rng.uniform(0.0, recvec[k])
            stats.random_draws += 1
        v += 1 << k
        last_k = k
    return v


def _sample_destination_bitpeel(bit_probs: np.ndarray,
                                rng: np.random.Generator,
                                single_random: bool,
                                stats: GenerationStats) -> int:
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
