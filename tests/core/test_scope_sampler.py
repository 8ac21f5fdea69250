"""The chained conditional tables draw the distribution the paper defines.

:class:`repro.core.tables.ScopeSampler` replaces one Bernoulli per
destination bit by one alias-table lookup per *chunk* of bits, in the row
of the table the source's bits of that chunk select.  What must hold is
Lemma 3: a destination's probability is its cell of the Kronecker product
of the per-level seeds, row-normalised — at every chunk width, across
chunk boundaries, on a short last chunk, under NSKG noise, for seeds with
exact zeros, for AVS-I and for ``n x n`` seeds.
"""

from functools import reduce

import numpy as np
import pytest
from scipy import stats as sps

from repro.core import tables
from repro.core.generator import RecursiveVectorGenerator
from repro.core.process import PlainProcess, make_process
from repro.core.seed import GRAPH500, SeedMatrix
from repro.core.tables import ScopeSampler

DRAWS = 1 << 20

# The corners of the kernel chi-square (tests/core/test_engines_agree.py).
SKEWED = SeedMatrix.rmat(0.9, 0.05, 0.04, 0.01)
EXACT_ZERO = SeedMatrix.rmat(0.6, 0.0, 0.3, 0.1)
CASES = {"graph500": (GRAPH500, 0.0), "noise": (GRAPH500, 0.1),
         "skewed": (SKEWED, 0.0), "exact-zero": (EXACT_ZERO, 0.0)}
# Seeds that force destination bits (tests/core/test_generator.py).
SELF_LOOPS = SeedMatrix.rmat(0.9, 0.0, 0.0, 0.1)    # dest bit == src bit
ALL_ZERO = SeedMatrix.rmat(0.6, 0.0, 0.4, 0.0)      # dest always 0

# (chunk width, levels): every shape crosses a chunk boundary, and all
# but width 1 end on a chunk shorter than the others.
SHAPES = [(1, 5), (2, 5), (3, 5), (4, 6)]


@pytest.fixture
def chunk_bits(monkeypatch):
    def force(width):
        monkeypatch.setattr(tables, "_CHUNK_BITS", width)
    return force


def process_of(seed_matrix, levels, noise=0.0):
    return make_process(seed_matrix, levels, noise,
                        np.random.default_rng(levels))


def sampler_of(process):
    return ScopeSampler(process.digit_matrices())


def conditional_pmf(process):
    """``P(v | u)`` for every ``(u, v)``: the Kronecker product of the
    per-level seeds (the stack's, under noise), row-normalised."""
    per_level = (process.stack.matrices if hasattr(process, "stack")
                 else [process.seed_matrix] * process.levels)
    full = reduce(np.kron, [m.entries for m in per_level])
    return full / full.sum(axis=1, keepdims=True)


def all_sources_keys(sampler, levels, rng):
    """``DRAWS`` keys shared evenly by every source of the matrix: the
    key ``u << levels | v`` is then the flat index of cell ``(u, v)``."""
    sources = np.arange(1 << levels, dtype=np.int64)
    counts = np.full(sources.size, DRAWS >> levels, dtype=np.int64)
    return sampler.keys(sources, counts, levels, rng)


def cell_pvalue(keys, pmf):
    """Chi-square of the key counts against the conditional ``pmf`` over
    *all* cells of every row; cells expecting fewer than 5 draws are
    pooled into one.  A cell of probability 0 must be empty — exactly,
    not statistically."""
    observed = np.bincount(keys, minlength=pmf.size).reshape(pmf.shape)
    assert observed.size == pmf.size, "a key outside the matrix"
    per_row = observed.sum(axis=1, keepdims=True)
    assert (per_row == per_row[0]).all(), "a key in another source's row"
    assert not observed[pmf == 0].any(), "an impossible key was drawn"
    expected = pmf * per_row
    dense = expected >= 5
    obs = np.append(observed[dense], observed[~dense].sum())
    exp = np.append(expected[dense], expected[~dense].sum())
    return sps.chisquare(obs[exp > 0], exp[exp > 0]).pvalue


@pytest.mark.parametrize("width,levels", SHAPES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_cell_has_its_conditional_probability(case, width, levels,
                                                    chunk_bits):
    chunk_bits(width)
    matrix, noise = CASES[case]
    process = process_of(matrix, levels, noise)
    sampler = sampler_of(process)
    assert sampler.uniforms_per_edge == -(-levels // width)
    keys = all_sources_keys(sampler, levels,
                            np.random.default_rng(levels * 10 + width))
    assert cell_pvalue(keys, conditional_pmf(process)) > 1e-4


def test_the_judgement_can_tell(chunk_bits):
    """The same chi-square rejects keys drawn from a neighbouring model
    (the other corner's tables), so passing it means something."""
    chunk_bits(2)
    keys = all_sources_keys(sampler_of(process_of(GRAPH500, 5, 0.1)), 5,
                            np.random.default_rng(1))
    assert cell_pvalue(keys, conditional_pmf(process_of(GRAPH500, 5))) < 1e-4


def test_single_short_chunk_at_the_default_width():
    assert tables._CHUNK_BITS > 6
    process = process_of(SKEWED, 6)
    sampler = sampler_of(process)
    assert sampler.uniforms_per_edge == 1
    keys = all_sources_keys(sampler, 6, np.random.default_rng(3))
    assert cell_pvalue(keys, conditional_pmf(process)) > 1e-4


def test_avs_in_draws_columns_of_the_seed():
    """``direction="in"``: a scope is a column, so the in-neighbours of
    ``v`` follow column ``v`` of the Kronecker power — row ``v`` of the
    transposed seed's."""
    levels = 5
    g = RecursiveVectorGenerator(levels, seed_matrix=SKEWED, direction="in")
    sources = np.arange(1 << levels, dtype=np.int64)
    counts = np.full(sources.size, DRAWS >> levels, dtype=np.int64)
    keys = g._draw_keys(sources, counts, np.random.default_rng(4))
    column_pmf = conditional_pmf(process_of(SKEWED.transpose(), levels))
    assert cell_pvalue(keys, column_pmf) > 1e-4
    assert cell_pvalue(keys, conditional_pmf(process_of(SKEWED,
                                                        levels))) < 1e-4


#: ``n x n`` seeds at depths whose chunks cross a boundary onto a short
#: one: ``3^4 <= 2^7`` digits, so depth 5 is chunks 4 + 1; ``4^3``, so
#: depth 4 is 3 + 1.  The zero seed forbids three cells of each level.
NARY_CASES = {
    "3x3": (np.array([[0.30, 0.12, 0.08],
                      [0.12, 0.10, 0.05],
                      [0.08, 0.05, 0.10]]), 5),
    "4x4": (np.arange(1.0, 17.0).reshape(4, 4) / 136.0, 4),
    "3x3-exact-zero": (np.array([[0.30, 0.00, 0.10],
                                 [0.10, 0.20, 0.00],
                                 [0.00, 0.10, 0.20]]), 5),
}


@pytest.mark.parametrize("case", sorted(NARY_CASES))
def test_every_nary_cell_has_its_conditional_probability(case):
    """Mixed radix: row slot ``u // n^lo % n^k`` of a table padded to a
    power of two, contributions ``t * n^lo``.  A key ``u << shift | v``
    is cell ``(u, v)`` of the ``n^depth``-square Kronecker power."""
    seed, depth = NARY_CASES[case]
    order = seed.shape[0]
    size = order ** depth
    sampler = ScopeSampler([seed / seed.sum(axis=1, keepdims=True)] * depth)
    assert sampler.uniforms_per_edge == 2
    shift = (size - 1).bit_length()
    sources = np.arange(size, dtype=np.int64)
    counts = np.full(size, DRAWS // size, dtype=np.int64)
    keys = sampler.keys(sources, counts, shift,
                        np.random.default_rng(order * 10 + depth))
    cells = (keys >> shift) * size + (keys & ((1 << shift) - 1))
    full = reduce(np.kron, [seed] * depth)
    assert cell_pvalue(cells, full / full.sum(axis=1, keepdims=True)) > 1e-4


def test_binary_tables_are_the_radix_two_case():
    """The tables built from GRAPH500's per-level 2 x 2 matrices, row
    ``s`` being ``[1 - p_s, p_s]``, are the plain process's, element for
    element: the binary kernel is the radix-2 sampler."""
    a, b, c, d = GRAPH500.as_tuple()
    p = np.array([b / (a + b), d / (c + d)])
    levels = 18
    by_hand = ScopeSampler([np.column_stack([1.0 - p, p])] * levels)
    process = ScopeSampler(PlainProcess(GRAPH500, levels).digit_matrices())
    assert len(by_hand._tables) == len(process._tables) == 3
    for mine, theirs in zip(by_hand._tables, process._tables):
        assert mine[0] == theirs[0]
        np.testing.assert_array_equal(mine[1], theirs[1])
        np.testing.assert_array_equal(mine[2], theirs[2])


def test_a_source_independent_process_builds_one_row_per_chunk():
    """ERV's row-uniform ``Kin``: equal rows state one row a level, so
    each chunk is one alias row, and every source draws from it."""
    process = PlainProcess(SeedMatrix.rmat(0.3, 0.2, 0.3, 0.2), 18)
    assert all(m.shape == (1, 2) for m in process.digit_matrices())
    sampler = ScopeSampler(process.digit_matrices())
    assert [table[1].size for table in sampler._tables] == [128, 128, 16]
    sources = np.array([0, 5, (1 << 18) - 1], dtype=np.int64)
    counts = np.array([DRAWS >> 2, 0, DRAWS >> 2], dtype=np.int64)
    keys = sampler.keys(sources, counts, 18, np.random.default_rng(11))
    np.testing.assert_array_equal(keys >> 18, np.repeat([0, 2], DRAWS >> 2))
    dest = keys & ((1 << 18) - 1)
    for x in range(18):                       # P(bit = 1) = 0.2 / 0.5
        for row in (dest[:DRAWS >> 2], dest[DRAWS >> 2:]):
            ones = int((row >> x & 1).sum())
            assert sps.binomtest(ones, row.size, 0.4).pvalue > 1e-4


class _GridRng:
    """Uniforms ``i / n``: with ``n`` a multiple of every slot count,
    each slot of the row is hit with a remaining fraction of exactly 0 —
    the draw that tells ``<`` from ``<=`` on a threshold of 0 and that a
    random stream produces once in 2^46 draws."""

    def random(self, out):
        out[:] = np.arange(out.size) / out.size
        return out


#: Seed and the destination bits it forbids a source ``u``.
FORBIDDEN = {
    "exact-zero": (EXACT_ZERO, lambda u, v: ~u & v),   # no 1 over a 0
    "self-loops": (SELF_LOOPS, lambda u, v: u ^ v),
    "all-zero": (ALL_ZERO, lambda u, v: v),
}


@pytest.mark.parametrize("width", [1, 2, 3, 7])
@pytest.mark.parametrize("name", sorted(FORBIDDEN))
def test_forbidden_bits_are_never_drawn(name, width, chunk_bits):
    """A bit the seed forces sits inside a chunk as threshold-0 slots: it
    costs no draw of its own and is decided exactly, not statistically."""
    chunk_bits(width)
    seed_matrix, forbidden = FORBIDDEN[name]
    levels = 18
    sampler = sampler_of(process_of(seed_matrix, levels))
    assert sampler.uniforms_per_edge == -(-levels // width)
    picks = np.random.default_rng(5).integers(0, 1 << levels, size=62)
    sources = np.concatenate([[0, (1 << levels) - 1], picks])
    mask = (1 << levels) - 1
    for rng, count in ((np.random.default_rng(6), 4096),
                       (_GridRng(), 4 << width)):
        for u in sources:
            keys = sampler.keys(np.array([u]), np.array([count]), levels,
                                rng)
            assert (keys >> levels == 0).all()
            assert not forbidden(u, keys & mask).any()


def source_sample(levels, rng):
    """4096 sources with 256 draws each; every (source bit, level) and
    every pair of source bits is well populated."""
    sources = rng.integers(0, 1 << levels, size=4096)
    return sources, np.full(sources.size, DRAWS >> 12, dtype=np.int64)


@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("width", [3, 7])
def test_eighteen_levels_marginals_and_boundary_independence(width, noise,
                                                             chunk_bits):
    chunk_bits(width)
    levels = 18
    process = process_of(GRAPH500, levels, noise)
    rng = np.random.default_rng(7)
    sources, counts = source_sample(levels, rng)
    keys = sampler_of(process).keys(sources, counts, levels, rng)
    np.testing.assert_array_equal(keys >> levels,
                                  np.repeat(np.arange(sources.size), counts))
    src = np.repeat(sources, counts)
    dst = keys & ((1 << levels) - 1)
    # Bit x of the destination is Bernoulli(p[x, source bit x]).
    one = process.bit_probabilities(np.array([0, (1 << levels) - 1]))
    worst = 1.0
    for x in range(levels):
        for s in (0, 1):
            bits = dst[(src >> x & 1) == s] >> x & 1
            expected = np.array([1.0 - one[s, x], one[s, x]]) * bits.size
            worst = min(worst, sps.chisquare(np.bincount(bits, minlength=2),
                                             expected).pvalue)
    assert worst > 1e-4            # 36 tests
    # Chunks are cut from the top: bits lo - 1 and lo sit in different
    # chunks.  Given the source's two bits, the destination's two are
    # independent.
    for lo in range(levels - width, 0, -width):
        for s in range(4):
            chosen = dst[(src >> (lo - 1) & 3) == s] >> (lo - 1) & 3
            table = np.bincount(chosen, minlength=4).reshape(2, 2)
            assert sps.chi2_contingency(table).pvalue > 1e-4


class _CountingRng:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def random(self, out):
        self.calls.append(out.size)
        return self.rng.random(out=out)


def test_draw_order_is_one_uniform_array_per_chunk():
    """The determinism key: chunk-major, one ``rng.random(out=buf)`` of
    ``counts.sum()`` uniforms per chunk, nothing else from the stream —
    whatever the seed forces (a forced bit costs no draw of its own and
    saves none)."""
    sources = np.arange(100, 200, dtype=np.int64)
    counts = np.arange(100, dtype=np.int64)            # row 0 draws nothing
    total = int(counts.sum())
    for seed_matrix in (GRAPH500, ALL_ZERO):
        sampler = sampler_of(process_of(seed_matrix, 18))
        counting = _CountingRng(8)
        first = sampler.keys(sources, counts, 18, counting)
        assert counting.calls == [total] * 3            # chunks 7 / 7 / 4
        replay = np.random.default_rng(8)
        for _ in range(3):
            replay.random(total)
        assert counting.rng.bit_generator.state == \
            replay.bit_generator.state
        again = sampler_of(process_of(seed_matrix, 18)).keys(
            sources, counts, 18, np.random.default_rng(8))
        np.testing.assert_array_equal(first, again)
    np.testing.assert_array_equal(
        first, np.repeat(np.arange(100, dtype=np.int64) << 18, counts))


def test_generator_builds_its_tables_on_the_first_block_that_draws():
    g = RecursiveVectorGenerator(10, seed=1, block_size=256)
    g.degrees()
    assert g._sampler is None
    g.generate_block(0)
    sampler = g._sampler
    g.generate_block(1)
    assert g._sampler is sampler


#: Row counts of one ``keys`` call: a row many slices long between short
#: and empty ones; a call of exactly three slices at the forced size; and
#: a call the size of a typical top-up round, under one slice at any size.
SLICED_CALLS = {
    "long-row": [5, 900, 0, 3, 250],
    "whole-slices": [97, 0, 150, 44],
    "top-up-round": [2, 1, 0, 20],
}


@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("call", sorted(SLICED_CALLS))
def test_the_slice_size_changes_no_key_and_no_stream_position(
        call, noise, monkeypatch):
    """Each (slice, chunk) starts at stream position ``chunk * N +
    first``, so a small odd slice draws the keys of one whole call and
    leaves the stream where that call does."""
    counts = np.array(SLICED_CALLS[call], dtype=np.int64)
    sources = np.random.default_rng(2).integers(0, 1 << 18, counts.size)
    sampler = sampler_of(process_of(GRAPH500, 18, noise))
    drawn = []
    for size in (tables._SLICE_KEYS, 97):
        monkeypatch.setattr(tables, "_SLICE_KEYS", size)
        rng = np.random.default_rng(9)
        keys = sampler.keys(sources, counts, 18, rng)
        drawn.append((keys, rng.bit_generator.state))
    (whole, state), (sliced, sliced_state) = drawn
    assert whole.size == counts.sum()
    np.testing.assert_array_equal(sliced, whole)
    assert sliced_state == state
