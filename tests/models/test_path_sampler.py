"""The path-table sampler draws the distribution the paper defines.

:class:`repro.models.rmat.PathSampler` replaces one uniform per recursion
level by one alias-table lookup per *chunk* of levels.  What must hold is
Definition 1: a key's probability is its cell of the Kronecker power of
the seed — at every chunk width, across chunk boundaries, on a short
last chunk, for seeds with exact zeros and for n x n seeds.
"""

from functools import reduce

import numpy as np
import pytest
from scipy import stats as sps

from repro.core import tables
from repro.core.seed import GRAPH500, UNIFORM, SeedMatrix
from repro.models import fast_kronecker_edge_batch, rmat_edge_batch
from repro.models import rmat
from repro.models.rmat import PathSampler

DRAWS = 1 << 20

# The seeds of the kernel chi-square (tests/core/test_generator.py).
SKEWED = SeedMatrix.rmat(0.9, 0.05, 0.04, 0.01)
EXACT_ZERO = SeedMatrix.rmat(0.6, 0.0, 0.3, 0.1)
SEEDS = {"graph500": GRAPH500, "uniform": UNIFORM, "skewed": SKEWED,
         "exact-zero": EXACT_ZERO}
SEED_3X3 = SeedMatrix(np.array([[0.3, 0.1, 0.1],
                                [0.1, 0.1, 0.05],
                                [0.1, 0.05, 0.1]]))

# (chunk width, levels): every shape crosses a chunk boundary, and all
# but width 1 end on a chunk shorter than the others.
SHAPES = [(1, 3), (2, 5), (3, 4), (3, 5), (2, 6)]


def reference_keys(seed_matrix, levels, count, rng):
    """The oracle — Figure 1(b) as written, one uniform per level."""
    n = seed_matrix.order
    cum = np.cumsum(seed_matrix.entries.ravel())[:-1]
    u = v = np.zeros(count, dtype=np.int64)
    for _ in range(levels):
        cell = np.searchsorted(cum, rng.random(count), side="right")
        u, v = u * n + cell // n, v * n + cell % n
    return u * n ** levels + v


def exact_pmf(seed_matrix, levels):
    """Probability of every packed key ``u * |V| + v``."""
    return reduce(np.kron, [seed_matrix.entries] * levels).ravel()


def cell_pvalue(keys, pmf):
    """Chi-square of the key counts against ``pmf`` over *all* cells;
    cells expecting fewer than 5 draws are pooled into one.  A cell of
    probability 0 must be empty — exactly, not statistically."""
    observed = np.bincount(keys, minlength=pmf.size)
    assert observed.size == pmf.size, "a key outside the matrix"
    assert not observed[pmf == 0].any(), "an impossible key was drawn"
    expected = pmf * keys.size
    dense = expected >= 5
    obs = np.append(observed[dense], observed[~dense].sum())
    exp = np.append(expected[dense], expected[~dense].sum())
    return sps.chisquare(obs[exp > 0], exp[exp > 0]).pvalue


@pytest.fixture
def chunk_bits(monkeypatch):
    def force(width):
        monkeypatch.setattr(rmat, "_CHUNK_BITS", width)
    return force


@pytest.mark.parametrize("width,levels", SHAPES)
@pytest.mark.parametrize("name", sorted(SEEDS))
def test_every_cell_has_its_kronecker_probability(name, width, levels,
                                                  chunk_bits):
    chunk_bits(width)
    sampler = PathSampler(SEEDS[name], levels)
    assert len(sampler._tables) == -(-levels // width)
    pmf = exact_pmf(SEEDS[name], levels)
    keys = sampler.keys(DRAWS, np.random.default_rng(levels * 10 + width))
    assert cell_pvalue(keys, pmf) > 1e-4
    # The same judgement accepts the oracle, so it can tell.
    oracle = reference_keys(SEEDS[name], levels, DRAWS,
                            np.random.default_rng(99))
    assert cell_pvalue(oracle, pmf) > 1e-4


def test_single_short_chunk_at_the_default_width():
    assert rmat._CHUNK_BITS > 6
    keys = PathSampler(GRAPH500, 6).keys(DRAWS, np.random.default_rng(3))
    assert cell_pvalue(keys, exact_pmf(GRAPH500, 6)) > 1e-4


def test_three_by_three_seed_against_its_kronecker_power():
    # 9^4 = 6561 paths in 8192 slots, then 9 in 16: both tables padded.
    sampler = PathSampler(SEED_3X3, 5)
    assert [int(t[0]) for t in sampler._tables] == [8192, 16]
    keys = sampler.keys(DRAWS, np.random.default_rng(4))
    assert cell_pvalue(keys, exact_pmf(SEED_3X3, 5)) > 1e-4


class _GridRng:
    """Uniforms ``i / count``: with ``count`` a multiple of every slot
    count, each slot is hit with a remaining fraction of exactly 0 — the
    draw that tells ``<`` from ``<=`` on a threshold of 0 and that a
    random stream produces once in 2^39 draws."""

    def random(self, out):
        out[:] = np.arange(out.size) / out.size
        return out


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_forbidden_quadrant_is_never_drawn(width, chunk_bits):
    """(0.6, 0, 0.3, 0.1): no level of any key may pick quadrant 1
    (source bit 0, destination bit 1)."""
    chunk_bits(width)
    levels = 19
    sampler = PathSampler(EXACT_ZERO, levels)
    for rng, count in ((np.random.default_rng(5), DRAWS),
                       (_GridRng(), 4 ** min(width, levels))):
        u, v = np.divmod(sampler.keys(count, rng), 1 << levels)
        assert not (~u & v).any()


def quadrants(keys, levels):
    """``(levels, count)``: the quadrant each key picked at each level,
    most significant level first."""
    u, v = np.divmod(keys, 1 << levels)
    shifts = np.arange(levels - 1, -1, -1)[:, None]
    return (u >> shifts & 1) * 2 + (v >> shifts & 1)


@pytest.mark.parametrize("width", [3, 7])
def test_nineteen_levels_marginals_and_boundary_independence(width,
                                                             chunk_bits):
    chunk_bits(width)
    levels = 19
    keys = PathSampler(GRAPH500, levels).keys(DRAWS,
                                              np.random.default_rng(6))
    picked = quadrants(keys, levels)
    expected = GRAPH500.entries.ravel() * DRAWS
    worst = min(sps.chisquare(np.bincount(row, minlength=4),
                              expected).pvalue for row in picked)
    assert worst > 1e-4            # 19 tests: 1e-4 each
    for first in range(width - 1, levels - 1, width):
        # Levels first / first + 1 sit in different chunks.
        table = np.bincount(picked[first] * 4 + picked[first + 1],
                            minlength=16).reshape(4, 4)
        assert sps.chi2_contingency(table).pvalue > 1e-3


class _CountingRng:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def random(self, out):
        self.calls.append(out.size)
        return self.rng.random(out=out)


def test_draw_order_is_one_uniform_array_per_chunk():
    """The determinism key: chunk-major, one ``rng.random(count)`` per
    chunk, nothing else taken from the stream."""
    sampler = PathSampler(GRAPH500, 19)
    counting = _CountingRng(8)
    first = sampler.keys(1000, counting)
    assert counting.calls == [1000] * 3          # chunks 7 / 7 / 5
    replay = np.random.default_rng(8)
    for _ in range(3):
        replay.random(1000)
    assert counting.rng.bit_generator.state == replay.bit_generator.state
    again = PathSampler(GRAPH500, 19).keys(1000, np.random.default_rng(8))
    np.testing.assert_array_equal(first, again)


def test_edge_batches_are_views_of_the_keys():
    keys = PathSampler(GRAPH500, 11).keys(500, np.random.default_rng(9))
    for batch in (rmat_edge_batch, fast_kronecker_edge_batch):
        edges = batch(GRAPH500, 11, 500, np.random.default_rng(9))
        np.testing.assert_array_equal(edges[:, 0] * 2048 + edges[:, 1],
                                      keys)


def one_call_keys(sampler, count, rng):
    """The determinism key spelled out: one ``rng.random(count)`` per
    chunk, each looked up whole."""
    key = np.zeros(count, dtype=np.int64)
    for slots, threshold, contrib in sampler._tables:
        r = rng.random(count) * slots
        slot = r.astype(np.int64)
        key += contrib[2 * slot + (r - slot < threshold[slot])]
    return key


@pytest.mark.parametrize("batch", [1, 7, 500, (1 << 16) - 1, (1 << 16) + 1,
                                   100_003])
def test_batches_are_slices_of_one_keys_call(batch):
    """The slice rule: batches of any size, each drawn a slice at a time,
    concatenate to the one call's keys and leave the stream where that
    call leaves it.  Past ``2^16`` keys a batch straddles slices, and a
    batch size that is no multiple of the slice moves every boundary."""
    count = 500 if batch <= 500 else 2 * batch + 3
    sampler = PathSampler(GRAPH500, 19)
    whole_rng = np.random.default_rng(10)
    whole = one_call_keys(sampler, count, whole_rng)
    for draw in (lambda rng: sampler.keys(count, rng),
                 lambda rng: np.concatenate(list(sampler.batches(
                     count, rng, batch)))):
        rng = np.random.default_rng(10)
        np.testing.assert_array_equal(draw(rng), whole)
        assert rng.bit_generator.state == whole_rng.bit_generator.state


def test_the_slice_size_changes_no_key(monkeypatch):
    """Under the slice rule a small odd slice draws the same keys, in
    batches that are and are not multiples of it."""
    sampler = PathSampler(GRAPH500, 19)
    whole = one_call_keys(sampler, 5000, np.random.default_rng(11))
    monkeypatch.setattr(tables, "_SLICE_KEYS", 97)
    for batch in (97 * 3, 1000, 5000):
        batches = list(sampler.batches(5000, np.random.default_rng(11),
                                       batch))
        assert [b.size for b in batches[:-1]] == [batch] * (len(batches)
                                                             - 1)
        np.testing.assert_array_equal(np.concatenate(batches), whole)
