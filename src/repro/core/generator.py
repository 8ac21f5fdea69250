"""The AVS (A Vertex Scope) generator — the recursive vector model kernel.

This is the core of TrillionG (Sections 4-5): for each source vertex ``u``
it draws the scope size ``d+(u)`` (Theorem 1) and samples that many
*distinct* destinations from ``P(v|u)`` (Theorem 2's distribution), in
working memory bounded by ``O(max(_BLOCK_EDGES, dmax))`` edges
(Section 5).

Kernel
------
``P(v|u)`` factorises over destination bits (Lemma 3, see
:mod:`repro.core.probability`), so the bits are independent draws —
taken seven at a time from chained conditional alias tables
(:class:`repro.core.tables.ScopeSampler`), batched in numpy over a run of
sources.  The paper's per-edge Algorithms 4-5 are the test oracle,
:class:`repro.core.reference.ReferenceGenerator`, which overrides the one
per-run hook :meth:`RecursiveVectorGenerator._generate_run`: it draws
from the same distribution and the same streams, but is **not**
byte-identical to the kernel (``docs/kernel.md``).  Golden digests are
frozen in ``tests/core/test_rng_golden.py``.

Determinism
-----------
Sources are cut into fixed ``block_size``-aligned *grid blocks*.  Scope
sizes are drawn per grid block: by default the ``|E|`` draws are split
down the tree of source digits (:func:`repro.core.scope.split_scope_sizes`),
the nodes above a grid block keyed by ``(seed, tag, level, node)`` and
those inside it by the block, so the sizes add up to ``|E|``.  A grid
block is then generated in *runs* of at most ``_BLOCK_EDGES`` edges, cut
at source boundaries, each keyed by ``(seed, tag, block, run)``.  The
graph is a pure function of its :class:`Recipe` — independent of how many
workers generate it or how the vertex range is partitioned
(``docs/determinism.md``).
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field
from operator import attrgetter
from typing import Callable, Iterator

import numpy as np

from ..errors import ConfigurationError, GenerationError, SeedMatrixError
from ..telemetry import registry
from ..util.external_sort import unique_sorted
from . import tables
from .process import EdgeProcess, make_process
from .rng import stream
from .scope import DEGREE_METHODS, sample_scope_sizes, split_scope_sizes
from .seed import GRAPH500, SeedMatrix
from .tables import ScopeSampler

__all__ = [
    "GenerationStats",
    "Recipe",
    "RecursiveVectorGenerator",
    "AdjacencyBlock",
]

# Stream tags: keep distinct so no two purposes share a stream.
_TAG_NOISE = 101
_TAG_DEGREE = 102
_TAG_EDGE = 103
# Its own tag: ``(level, 0)`` under ``_TAG_DEGREE`` would be block
# ``level``'s degree key, since SeedSequence absorbs a trailing 0.
_TAG_SPLIT = 104

_MAX_TOPUP_ROUNDS = 200

#: Edges one run of a grid block holds at most, unless one scope alone is
#: larger (then the run is that scope).  Scale-18 peak RSS of the whole
#: sweep (seed 7, fresh processes, 2 vCPUs): 2^19 46.6 MiB, 2^18
#: 44.0-44.9, 2^17 42.6, 2^16 42.2-42.5.
_BLOCK_EDGES = 1 << 17


@dataclass
class GenerationStats:
    """Counters accumulated while generating.  ``random_draws`` counts
    every uniform a destination sampler consumes, top-up redraws included
    (not the ``|V|`` scores of the exact fallback for saturated scopes)."""

    edges: int = 0
    duplicates_discarded: int = 0
    random_draws: int = 0
    max_scope_size: int = 0


@dataclass
class AdjacencyBlock:
    """One generated block: CSR-like triplet over consecutive sources.

    ``destinations[offsets[j]:offsets[j+1]]`` are the (sorted, distinct)
    out-neighbours of ``sources[j]``.  ``iter_blocks`` yields the runs
    of a grid block, each holding at most ``_BLOCK_EDGES`` edges or one
    scope; ``generate_block`` returns a whole grid block.
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


@dataclass(frozen=True)
class Recipe:
    """The nine numbers an AVS graph is a pure function of (Sections
    4-5).  Every worker's generator is its :meth:`build`, and a
    checkpoint manifest records its :meth:`to_json`: equal ``to_json``
    values give equal bytes (``docs/determinism.md``).

    Parameters
    ----------
    scale:
        The recursion depth: ``|V| = n^scale`` for an ``n x n`` seed
        (``log2(|V|)`` for a 2x2 one).
    edge_factor:
        ``|E| / |V|`` (Graph500's 16 by default) when ``num_edges`` is
        not given.  Not a field: the recipe keeps ``num_edges``.
    seed_matrix:
        ``n x n`` seed (``n >= 2``; SKG's general initiator, RMAT at
        ``n = 2``); defaults to the Graph500 standard matrix.  A vertex
        id is ``scale`` base-``n`` digits.
    num_edges:
        Explicit ``|E|`` target.  Under ``degree_method="split"`` the
        scope sizes add up to it exactly, unless a scope is capped at
        ``|V|``; under ``"normal"`` it is their expected sum.
    noise:
        NSKG noise parameter ``N`` (0 disables noise; Appendix C defines
        it for 2x2 seeds only).
    direction:
        ``"out"`` for AVS-O (scopes are rows; yields out-adjacency) or
        ``"in"`` for AVS-I (scopes are columns; yields in-adjacency).
    dedup:
        Eliminate repeat edges within each scope and top up to the drawn
        scope size (Algorithm 2's set semantics).  Default True.
    degree_method:
        How scope sizes are drawn (:data:`repro.core.scope.DEGREE_METHODS`):
        ``"split"`` (default, Theorem 1's binomials drawn jointly,
        :func:`repro.core.scope.split_scope_sizes`), ``"normal"``
        (Theorem 1's independent normals) or ``"deterministic"`` (TeG).
    seed:
        Master random seed.
    block_size:
        Number of consecutive sources per grid block; randomness is keyed
        per grid block, so this also fixes the determinism granularity.
        A block's keys ``row << shift | dest`` must fit an int64:
        ``shift + (block_size - 1).bit_length() <= 63``.
    """

    # Manifest order; scale, edge_factor, seed_matrix are positional.
    scale: int
    num_edges: int | None = field(default=None, kw_only=True)
    edge_factor: InitVar[int | None] = None
    seed_matrix: SeedMatrix | None = None
    _: KW_ONLY
    noise: float = 0.0
    direction: str = "out"
    dedup: bool = True
    degree_method: str = "split"
    seed: int = 0
    block_size: int = 4096

    def __post_init__(self, edge_factor: int | None) -> None:
        if self.scale < 1:
            raise ConfigurationError("scale must be >= 1")
        if self.seed_matrix is None:
            object.__setattr__(self, "seed_matrix", GRAPH500)
        if self.shift > 56:
            raise ConfigurationError(
                f"|V| = {self.seed_matrix.order}^{self.scale} would "
                "overflow int64 destination packing")
        if self.direction not in ("out", "in"):
            raise ConfigurationError("direction must be 'out' or 'in'")
        if self.block_size < 1:
            raise ConfigurationError("block_size must be positive")
        if self.degree_method not in DEGREE_METHODS:
            raise ConfigurationError(
                f"unknown degree_method {self.degree_method!r}; expected "
                f"one of {DEGREE_METHODS}")
        # A block's keys pack ``row << shift | dest`` into a signed int64.
        if self.shift + (self.block_size - 1).bit_length() > 63:
            raise ConfigurationError(
                f"|V| = {self.seed_matrix.order}^{self.scale} leaves "
                f"{63 - self.shift} bits of an int64 key for the row ids "
                f"of block_size {self.block_size}")
        if self.num_edges is None:
            object.__setattr__(self, "num_edges", self.num_vertices * (
                16 if edge_factor is None else edge_factor))
        if self.num_edges < 1:
            raise ConfigurationError("num_edges must be positive")
        # A scope through an all-zero row (AVS-O) or column (AVS-I) has
        # no destination distribution to draw from; :class:`SeedMatrix`
        # itself allows such seeds, which the RMAT-family models use.
        line = "row" if self.direction == "out" else "column"
        for i, total in enumerate(self.scope_matrix.row_sums()):
            if total <= 0.0:
                raise SeedMatrixError(
                    f"seed {line} {i} is all zero: a direction="
                    f"{self.direction!r} scope through it has no "
                    "destination distribution")

    @property
    def num_vertices(self) -> int:
        """``|V| = n^scale``."""
        return self.seed_matrix.order ** self.scale

    @property
    def shift(self) -> int:
        """Destination bits of a packed key ``row << shift | dest``."""
        return (self.num_vertices - 1).bit_length()

    @property
    def scope_matrix(self) -> SeedMatrix:
        """The seed whose rows are the scopes: transposed for AVS-I."""
        return (self.seed_matrix if self.direction == "out"
                else self.seed_matrix.transpose())

    def to_json(self) -> dict:
        """The fields as JSON values, the seed as its rows: the
        ``generator`` entry of a checkpoint manifest."""
        return dict(vars(self), seed_matrix=self.seed_matrix.entries.tolist())

    @classmethod
    def from_json(cls, doc: dict) -> "Recipe":
        """The recipe :meth:`to_json` wrote."""
        return cls(**{**doc, "seed_matrix": SeedMatrix(doc["seed_matrix"])})

    def build(self) -> "RecursiveVectorGenerator":
        """A generator of this recipe's graph."""
        return RecursiveVectorGenerator(**vars(self))


class RecursiveVectorGenerator:
    """TrillionG's per-scope generator over a range of source vertices.

    Takes :class:`Recipe`'s parameters and reads the recipe's fields
    and sizes as its attributes.
    """

    scale = property(attrgetter("_recipe.scale"))
    num_edges = property(attrgetter("_recipe.num_edges"))
    seed_matrix = property(attrgetter("_recipe.seed_matrix"))
    noise = property(attrgetter("_recipe.noise"))
    direction = property(attrgetter("_recipe.direction"))
    dedup = property(attrgetter("_recipe.dedup"))
    degree_method = property(attrgetter("_recipe.degree_method"))
    seed = property(attrgetter("_recipe.seed"))
    block_size = property(attrgetter("_recipe.block_size"))
    order = property(attrgetter("_recipe.seed_matrix.order"))
    num_vertices = property(attrgetter("_recipe.num_vertices"))

    def __init__(self, *args, **settings) -> None:
        recipe = self._recipe = Recipe(*args, **settings)
        self.process: EdgeProcess = make_process(
            recipe.scope_matrix, self.scale, self.noise,
            stream(self.seed, _TAG_NOISE))
        self.stats = GenerationStats()
        # Built by the first block that draws: ``degrees()``-only callers
        # (partitioning) never pay for the tables.
        self._sampler: ScopeSampler | None = None
        # The split tree's draws above a grid block, ``(level, node) ->``
        # its children's counts, kept for the last block only: the next
        # block of a sweep shares all but a few of them.
        self._splits: dict[tuple[int, int], list[int]] = {}

    def recipe(self) -> Recipe:
        """The :class:`Recipe` this generator was built from."""
        return self._recipe

    # ------------------------------------------------------------------
    # Degree (scope size) sampling — Theorem 1
    # ------------------------------------------------------------------

    def block_degrees(self, block_index: int) -> np.ndarray:
        """Scope sizes for every source in grid block ``block_index``."""
        sources = self._block_sources(block_index)
        rng = stream(self.seed, _TAG_DEGREE, block_index)
        # A scope of distinct edges cannot exceed its |V| cells; without
        # dedup, repeats are allowed and no cap applies.
        max_size = self.num_vertices if self.dedup else None
        if self.degree_method != "split":
            probs = self.process.row_probabilities(sources)
            return sample_scope_sizes(probs, self.num_edges, rng,
                                      method=self.degree_method,
                                      max_size=max_size)
        split = self.process.split_probabilities()
        sizes = np.empty(sources.size, dtype=np.int64)
        for level, node, count in self._block_roots(block_index):
            first = node * self.order ** (self.scale - level) - int(sources[0])
            part = split_scope_sizes(count, split[level:], rng)
            sizes[first:first + part.size] = part
        if max_size is not None:
            np.minimum(sizes, max_size, out=sizes)
        return sizes

    def block_total(self, block_index: int) -> int:
        """The edges drawn for grid block ``block_index``.

        Under ``"split"`` this is read off the block's root path alone,
        without drawing a scope size; it is ``block_degrees(...).sum()``
        unless a scope of the block is capped at ``|V|``.
        """
        if self.degree_method != "split":
            return int(self.block_degrees(block_index).sum())
        return sum(count for _, _, count in self._block_roots(block_index))

    def _block_roots(self, block_index: int) -> list[tuple[int, int, int]]:
        """The nodes ``(level, node, count)`` of the split tree that tile
        grid block ``block_index``, in source order: the largest nodes
        whose sources all lie in the block (one node when ``block_size``
        is a power of ``n``).  Node ``(level, node)`` holds sources
        ``[node * n^(scale - level), (node + 1) * n^(scale - level))``.

        Each node above them that the block meets is split among its
        ``n`` children by :func:`~repro.core.scope.split_scope_sizes`'s
        conditional binomials from ``stream(seed, _TAG_SPLIT, level,
        node)`` (one ``binomial`` at ``n = 2``), so every block that
        meets a node derives the same split on its own.
        """
        lo = block_index * self.block_size
        hi = min(lo + self.block_size, self.num_vertices)
        n = self.order
        split = self.process.split_probabilities()
        previous, self._splits = self._splits, {}
        roots = []
        pending = [(0, 0, self.num_edges)]
        while pending:
            level, node, count = pending.pop()
            width = n ** (self.scale - level)
            first, stop = node * width, (node + 1) * width
            if stop <= lo or first >= hi:
                continue
            if lo <= first and stop <= hi:
                roots.append((level, node, count))
                continue
            children = previous.get((level, node))
            if children is None:
                children = split_scope_sizes(
                    count, split[level:level + 1],
                    stream(self.seed, _TAG_SPLIT, level, node)
                ).tolist() if count else [0] * n
            self._splits[level, node] = children
            pending.extend((level + 1, node * n + t, children[t])
                           for t in reversed(range(n)))
        return roots

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
        """Generate all scopes of grid block ``block_index`` (Algorithm 4,
        batched): its runs, concatenated, so it holds what
        :meth:`iter_blocks` yields for the block."""
        runs = [run for _, run in self._block_runs(block_index)]
        if len(runs) == 1:
            return runs[0]
        offsets = np.zeros(sum(run.sources.size for run in runs) + 1,
                           dtype=np.int64)
        np.cumsum(np.concatenate([run.degrees for run in runs]),
                  out=offsets[1:])
        return AdjacencyBlock(np.concatenate([run.sources for run in runs]),
                              offsets, np.concatenate(
                                  [run.destinations for run in runs]))

    def _block_runs(self, block_index: int, lo: int = 0,
                    hi: int | None = None
                    ) -> Iterator[tuple[int, AdjacencyBlock]]:
        """The runs of grid block ``block_index`` that meet its rows
        ``[lo, hi)``, each with its first row, generated one at a time.

        A block is cut into runs of at most ``_BLOCK_EDGES`` edges
        (:func:`_run_cuts`); run ``k`` draws from
        ``stream(seed, _TAG_EDGE, block, k)``.
        """
        sources = self._block_sources(block_index)
        degrees = self.block_degrees(block_index)
        cuts = _run_cuts(degrees)
        hi = sources.size if hi is None else hi
        for k, (first, stop) in enumerate(zip(cuts, cuts[1:])):
            if stop <= lo or first >= hi:
                continue
            before = (self.stats.random_draws,
                      self.stats.duplicates_discarded)
            run = self._generate_run(
                sources[first:stop], degrees[first:stop],
                stream(self.seed, _TAG_EDGE, block_index, k))
            self._record_run(run, degrees[first:stop], before)
            yield first, run
            del run   # not held while the next run is drawn

    def _record_run(self, run: AdjacencyBlock, degrees: np.ndarray,
                    before: tuple[int, int]) -> None:
        """Count one run into :attr:`stats` and publish its telemetry.

        Counters, plus one ``np.unique`` over the run's degrees handed to
        ``observe_bulk`` — O(sources) numpy work, never a per-edge loop.
        Nothing here touches the RNG streams (the golden digests, recorded
        with telemetry on, pin that).
        """
        reg = registry()
        draws0, dups0 = before
        stats = self.stats
        stats.edges += run.num_edges
        reg.counter("generator.blocks").inc()
        reg.counter("generator.edges").inc(run.num_edges)
        reg.counter("generator.duplicates_discarded").inc(
            stats.duplicates_discarded - dups0)
        reg.counter("generator.random_draws").inc(
            stats.random_draws - draws0)
        if degrees.size:
            stats.max_scope_size = max(stats.max_scope_size,
                                       int(degrees.max()))
            values, counts = np.unique(degrees, return_counts=True)
            reg.histogram("generator.scope_size").observe_bulk(
                values.tolist(), counts.tolist())

    def iter_blocks(self, start: int = 0,
                    stop: int | None = None) -> Iterator[AdjacencyBlock]:
        """Yield :class:`AdjacencyBlock` runs covering ``[start, stop)``.

        Only the runs that meet the range are generated; a partial first
        or last run is generated whole (determinism is per run) and then
        sliced to the range.  A run is let go once the consumer resumes,
        before the next one is drawn.
        """
        start, stop = self._check_range(start, stop)
        if start == stop:
            return
        for block_index in range(start // self.block_size,
                                 (stop - 1) // self.block_size + 1):
            base = block_index * self.block_size
            lo, hi = max(start - base, 0), stop - base
            for first, run in self._block_runs(block_index, lo, hi):
                a = max(lo - first, 0)
                b = min(hi - first, run.sources.size)
                if a != 0 or b != run.sources.size:
                    offs = run.offsets
                    run = AdjacencyBlock(
                        run.sources[a:b], offs[a:b + 1] - offs[a],
                        run.destinations[offs[a]:offs[b]])
                yield run
                del run

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
    # The kernel
    # ------------------------------------------------------------------

    def _generate_run(self, sources: np.ndarray, degrees: np.ndarray,
                      rng: np.random.Generator) -> AdjacencyBlock:
        """The scopes of one run, drawn from the run's own stream ``rng``:
        the one per-run hook, which
        :class:`~repro.core.reference.ReferenceGenerator` overrides."""
        # Rejection top-up coupon-collects once a scope exceeds ~1/4 of
        # its row (small scales only, where the hub's expected degree
        # ``|E| * P(u->)`` nears ``|V|``): sample those scopes exactly,
        # after the others.
        saturated = (degrees > (self.num_vertices >> 2) if self.dedup
                     else np.zeros(degrees.size, dtype=bool))
        block, duplicates = _draw_run(
            sources, np.where(saturated, 0, degrees), self._recipe.shift,
            self.dedup,
            lambda rows, counts: self._draw_keys(sources[rows], counts, rng),
            lambda row, size: self._sample_scope_exact(int(sources[row]),
                                                       size, rng))
        self.stats.duplicates_discarded += duplicates
        if saturated.any():
            block = self._with_saturated(block, degrees, saturated, rng)
        return block

    def _draw_keys(self, sources: np.ndarray, counts: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """``counts[j]`` keys ``j << shift | destination`` per source, rows
        in order — the one place the kernel draws."""
        if self._sampler is None:
            self._sampler = ScopeSampler(self.process.digit_matrices())
        keys = self._sampler.keys(sources, counts, self._recipe.shift, rng)
        self.stats.random_draws += keys.size * self._sampler.uniforms_per_edge
        return keys

    # ------------------------------------------------------------------
    # Saturated scopes (small-scale hubs whose size approaches |V|)
    # ------------------------------------------------------------------

    def _sample_scope_exact(self, u: int, size: int,
                            rng: np.random.Generator) -> np.ndarray:
        """Exact without-replacement sample of ``size`` destinations.

        Materializes the row PMF (the product of ``u``'s per-digit rows of
        :meth:`EdgeProcess.digit_matrices`, Lemma 3) and takes a PPSWOR
        sample via the Gumbel top-k trick — distributionally identical to
        the paper's draw-until-distinct loop, but O(|V| log |V|) instead
        of coupon-collector time.  Only reachable at small scales, so the
        O(|V|) row never exceeds a few MB.
        """
        if self.num_vertices > 1 << 26:
            raise GenerationError(
                "saturated scope at a scale too large to materialize; "
                "this cannot occur for edge factors <= |V|^(1/4)")
        n = self.order
        rows = [m[u // n ** d % n % len(m)]     # least significant first
                for d, m in enumerate(self.process.digit_matrices()[::-1])]
        return _ppswor(_digits_pmf(rows), size, rng)

    def _with_saturated(self, light: AdjacencyBlock, degrees: np.ndarray,
                        saturated: np.ndarray, rng: np.random.Generator
                        ) -> AdjacencyBlock:
        """``light``, whose saturated scopes were drawn empty, with those
        scopes sampled exactly, in source order."""
        sources = light.sources
        per_source = [light.destinations[light.offsets[j]:
                                         light.offsets[j + 1]]
                      for j in range(sources.size)]
        for j in np.flatnonzero(saturated):
            per_source[j] = self._sample_scope_exact(int(sources[j]),
                                                     int(degrees[j]), rng)
        counts = np.array([d.size for d in per_source], dtype=np.int64)
        offsets = np.zeros(sources.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return AdjacencyBlock(sources, offsets, np.concatenate(per_source))

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


def _run_cuts(degrees: np.ndarray) -> list[int]:
    """The row boundaries of a grid block's runs: greedily, each run is
    the longest run of the remaining rows whose scopes add up to at most
    ``_BLOCK_EDGES`` edges — or to its first scope, where that alone is
    larger — so no run but a block's only one is without edges."""
    offsets = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    cuts = [0]
    while cuts[-1] < degrees.size:
        first = cuts[-1]
        most = max(offsets[first] + _BLOCK_EDGES, offsets[first + 1])
        cuts.append(int(np.searchsorted(offsets, most, "right")) - 1)
    return cuts


def _draw_run(sources: np.ndarray, degrees: np.ndarray, shift: int,
              dedup: bool, draw: Callable[[np.ndarray, np.ndarray],
                                          np.ndarray],
              exact: Callable[[int, int], np.ndarray]
              ) -> tuple[AdjacencyBlock, int]:
    """The scopes of one run, ``degrees[j]`` destinations for each of
    ``sources``, and the number of duplicates discarded.

    ``draw(rows, counts)`` draws ``counts[j]`` keys
    ``j << shift | destination`` for row ``rows[j]`` of the run, rows in
    order; one sort orders the run, and the sorted array, stripped of its
    row bits, is its destinations.  With ``dedup`` the scopes are made
    sets by :func:`_dedup_topup`, which falls back on ``exact``.
    """
    keys = draw(np.arange(sources.size), degrees)
    keys.sort()
    counts, duplicates = degrees, 0
    if dedup:
        keys, counts, duplicates = _dedup_topup(keys, degrees, shift, draw,
                                                exact)
    keys &= np.int64((1 << shift) - 1)
    offsets = np.zeros(sources.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return AdjacencyBlock(sources, offsets, keys), duplicates


def _dedup_topup(keys: np.ndarray, degrees: np.ndarray, shift: int,
                 draw: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 exact: Callable[[int, int], np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-scope duplicate elimination with stochastic top-up.

    Implements Algorithm 2's ``while count(edgeSet) <= |S|`` loop for a
    whole run at once: duplicates are dropped (set union), shortfalls
    are refilled by drawing again, until every scope reaches its size.
    ``keys`` are the sorted first-pass keys ``row << shift | dest``.
    They are sorted once and their repeats are compacted out in
    place, and a round costs what it draws: only the rows still short
    are drawn (``draw(rows, shortfall)``, keys packed by their position
    in ``rows``), their candidates are looked up in the first-pass keys
    and in ``extra`` (the sorted keys earlier rounds added), and the
    fresh ones are merged into ``extra``.  ``extra`` is then merged
    back into ``keys`` in place: a finished run holds
    ``degrees.sum()`` distinct keys, exactly what the first pass drew.
    A round that draws only duplicates is just a round; scopes still
    short after ``_MAX_TOPUP_ROUNDS`` (a row whose support is smaller
    than its size, or so skewed that the last distinct draws are a
    coupon-collector problem) are finished by ``exact(row, size)``, the
    sorted destinations of an exact PPSWOR sample (:func:`_ppswor`).
    Returns the sorted distinct keys, their count per row, and the
    number of duplicates discarded.
    """
    low = np.int64((1 << shift) - 1)
    first = unique_sorted(keys)
    kept = first.size
    duplicates = keys.size - kept
    # The repeats lie behind the distinct keys.
    have = degrees - np.bincount(keys[kept:] >> shift,
                                 minlength=degrees.size)
    extra = np.empty(0, dtype=np.int64)
    for _ in range(_MAX_TOPUP_ROUNDS):
        short = np.flatnonzero(have != degrees)
        if not short.size:
            break
        shortfall = degrees[short] - have[short]
        drawn = draw(short, shortfall)
        drawn.sort()
        drawn = unique_sorted(drawn)
        rows = drawn >> shift
        # Rows of ``short`` back to rows of the run: ``short`` ascends,
        # so the keys stay sorted.
        drawn = short[rows] << shift | drawn & low
        fresh = _absent(first, drawn) & _absent(extra, drawn)
        extra = _merge_sorted(extra, drawn[fresh])
        have[short] += np.bincount(rows[fresh], minlength=short.size)
        duplicates += int(shortfall.sum()) - int(fresh.sum())
    keys = _merge_back(keys, kept, extra)
    # Rounds exhausted: finish the remaining scopes exactly, all of
    # them in one fold.
    stalled = np.flatnonzero(have != degrees)
    if stalled.size:
        finished = [row << shift | exact(int(row), int(degrees[row]))
                    for row in stalled]
        have[stalled] = [part.size for part in finished]
        gone = np.zeros(degrees.size, dtype=bool)
        gone[stalled] = True
        keys = _merge_sorted(keys[~gone[keys >> shift]],
                             np.concatenate(finished))
    return keys, have, duplicates


def _digits_pmf(rows: np.ndarray) -> np.ndarray:
    """The PMF over ``[0, r^L)`` of ``L`` independent base-``r`` digits,
    digit ``d`` (least significant first) drawn from ``rows[d]``
    (Lemma 3)."""
    pmf = np.ones(1)
    for row in rows:
        pmf = np.kron(row, pmf)
    return pmf


def _ppswor(pmf: np.ndarray, size: int, rng: np.random.Generator
            ) -> np.ndarray:
    """The sorted outcomes of an exact without-replacement sample of
    ``size`` of them (fewer where ``pmf`` has less support), by the
    Gumbel top-k trick: one uniform per outcome, as ever, and only the
    support is scored, since an outcome of probability 0 scores -inf."""
    uniforms = rng.random(pmf.size)
    support = np.flatnonzero(pmf != 0.0)   # 10x faster than on floats
    size = min(size, support.size)
    with np.errstate(divide="ignore"):
        scores = (np.log(pmf[support])
                  - np.log(-np.log(uniforms[support])))
    cut = support.size - size
    top = support[np.argpartition(scores, cut)[cut:]]
    return np.sort(top).astype(np.int64)


def _merge_back(keys: np.ndarray, kept: int, extra: np.ndarray
                ) -> np.ndarray:
    """The sorted union of ``keys[:kept]`` and ``extra`` (sorted and
    disjoint), merged in place into ``keys[:kept + extra.size]``.

    From the back, a window at a time: the window takes the largest
    slice of the kept keys not yet placed and the extra keys above the
    kept key below it — or, where those are more than a slice, the
    largest slice of the extra keys and the kept keys above the extra
    key below it.  Either way it holds the largest keys left, at most
    two slices, and is merged (:func:`_merge_sorted`) to the top of the
    positions left, which all lie above every kept key it has not read.
    """
    size = tables._SLICE_KEYS
    i, j = kept, extra.size
    while j:
        i0 = max(i - size, 0)
        j0 = int(np.searchsorted(extra[:j], keys[i0 - 1])) if i0 else 0
        if j - j0 > size:
            j0 = j - size
            i0 = int(np.searchsorted(keys[:i], extra[j0 - 1]))
        # A window of kept keys alone is a view; numpy copies it out
        # before the shifted assignment overlaps it.
        keys[i0 + j0:i + j] = _merge_sorted(keys[i0:i], extra[j0:j])
        i, j = i0, j0
    return keys[:kept + extra.size]


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
