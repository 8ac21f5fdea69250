"""Unit tests for repro.core.generator (the AVS kernel) and
repro.core.reference (the Algorithms 4-5 oracle)."""

import dataclasses
import functools
import json
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core import tables
from repro.core.generator import (AdjacencyBlock, Recipe,
                                  RecursiveVectorGenerator)
from repro.core.reference import (IdeaToggles, ReferenceGenerator,
                                  ReferenceStats)
from repro.core.seed import GRAPH500, SeedMatrix
from repro.errors import ConfigurationError, SeedMatrixError


class TestConstruction:
    def test_defaults(self):
        g = RecursiveVectorGenerator(10)
        assert g.num_vertices == 1024
        assert g.num_edges == 16 * 1024
        assert g.seed_matrix == GRAPH500

    def test_explicit_num_edges(self):
        g = RecursiveVectorGenerator(10, num_edges=5000)
        assert g.num_edges == 5000

    def test_recipe_has_the_nine_settings(self):
        assert [f.name for f in dataclasses.fields(Recipe)] == [
            "scale", "num_edges", "seed_matrix", "noise", "direction",
            "dedup", "degree_method", "seed", "block_size"]
        # The edge factor and the Graph500 seed resolve once, here.
        assert Recipe(10) == Recipe(10, 16, GRAPH500) == Recipe(
            10, num_edges=16 * 1024, seed_matrix=GRAPH500)

    @pytest.mark.parametrize("settings", [
        dict(scale=9, seed=3),
        dict(scale=5, seed=3, seed_matrix=SeedMatrix(np.array(
            [[0.30, 0.12, 0.08], [0.12, 0.10, 0.05], [0.08, 0.05, 0.10]]))),
        dict(scale=9, noise=0.01),
        dict(scale=9, direction="in"),
        dict(scale=9, degree_method="normal"),
        dict(scale=9, edge_factor=4, block_size=64),
    ], ids=["2x2", "3x3", "noise", "in", "normal", "block_size"])
    def test_recipe_round_trips(self, settings):
        """Through a manifest's JSON, a worker's pickle and a build, a
        recipe comes back equal, and so does the graph it builds."""
        recipe = Recipe(**settings)
        back = Recipe.from_json(json.loads(json.dumps(recipe.to_json())))
        assert back == recipe
        # Exactly: ``==`` compares seeds with a tolerance.
        assert back.to_json() == recipe.to_json()
        assert (pickle.loads(pickle.dumps(recipe)).to_json()
                == recipe.to_json())
        built = recipe.build()
        assert built.recipe() == recipe
        assert built.recipe().to_json() == recipe.to_json()
        np.testing.assert_array_equal(
            built.edges(),
            RecursiveVectorGenerator(**settings).edges())

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            RecursiveVectorGenerator(0)
        with pytest.raises(ConfigurationError):
            RecursiveVectorGenerator(60)

    def test_rejects_bad_direction(self):
        with pytest.raises(ConfigurationError):
            RecursiveVectorGenerator(8, direction="sideways")

    def test_rejects_bad_engine(self):
        # The generator is the kernel; the oracle is its own class.
        for engine in ("quantum", "bitwise", "reference"):
            with pytest.raises(TypeError):
                RecursiveVectorGenerator(8, engine=engine)
        with pytest.raises(TypeError):
            RecursiveVectorGenerator(8, ideas=IdeaToggles())

    def test_removed_kernel_spellings_fail_loudly(self, tmp_path):
        from repro.cli import build_parser
        for engine in ("vectorized", "alias"):
            with pytest.raises(TypeError):
                RecursiveVectorGenerator(8, engine=engine)
        with pytest.raises(TypeError):
            RecursiveVectorGenerator(8, sampler="bitwise")
        with pytest.raises(TypeError):
            RecursiveVectorGenerator(8, bundle_depth=8)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["generate", "--scale", "8", "--sampler", "bitwise",
                 "--output", str(tmp_path / "g.adj6")])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("entries, direction, line", [
        ([[.5, .5], [0, 0]], "out", "row 1"),
        ([[0, 0], [0, 1]], "out", "row 0"),
        ([[.5, 0], [.5, 0]], "in", "column 1"),
    ])
    def test_rejects_an_all_zero_scope_line(self, entries, direction, line):
        """A seed row (AVS-O) or column (AVS-I) with no mass is refused
        by name at construction, not by a division inside a block."""
        seed = SeedMatrix(entries)          # the seed itself is legal
        with pytest.raises(SeedMatrixError, match=line):
            RecursiveVectorGenerator(6, seed_matrix=seed,
                                     direction=direction)

    @pytest.mark.parametrize("entries, direction", [
        ([[.5, 0], [.5, 0]], "out"),
        ([[.5, .5], [0, 0]], "in"),
    ])
    def test_zero_line_across_the_scopes_is_allowed(self, entries,
                                                    direction):
        """A zero column under AVS-O (a zero row under AVS-I) only
        restricts the destinations."""
        g = RecursiveVectorGenerator(6, seed_matrix=SeedMatrix(entries),
                                     direction=direction, seed=7)
        assert sum(b.num_edges for b in g.iter_blocks()) > 0

    def test_rejects_bad_block_size(self):
        with pytest.raises(ConfigurationError):
            RecursiveVectorGenerator(8, block_size=0)

    @pytest.mark.parametrize("scale, block_size, fits", [
        (51, 4096, True), (52, 4096, False),
        (56, 128, True), (56, 256, False)])
    def test_key_packing_guard_counts_the_row_bits(self, scale, block_size,
                                                    fits):
        """A key ``row << scale | dest`` needs ``log2(block_size)`` bits
        above the destination inside a signed int64."""
        def make():
            return RecursiveVectorGenerator(scale, num_edges=2 ** 22,
                                            block_size=block_size)
        if not fits:
            with pytest.raises(ConfigurationError):
                make()
            return
        g = make()
        block = g.generate_block(0)
        np.testing.assert_array_equal(block.degrees, g.block_degrees(0))
        assert 0 <= block.destinations.min()
        assert block.destinations.max() < g.num_vertices


class TestEdges:
    def test_edge_count_near_target(self):
        g = RecursiveVectorGenerator(12, 16, seed=0)
        e = g.edges()
        assert abs(e.shape[0] - g.num_edges) / g.num_edges < 0.05

    def test_edges_in_range(self):
        g = RecursiveVectorGenerator(10, 8, seed=1)
        e = g.edges()
        assert e.min() >= 0
        assert e.max() < 1024

    def test_no_duplicate_edges(self):
        g = RecursiveVectorGenerator(10, 16, seed=2)
        e = g.edges()
        packed = e[:, 0] * 1024 + e[:, 1]
        assert np.unique(packed).size == e.shape[0]

    def test_duplicates_allowed_when_dedup_off(self):
        g = RecursiveVectorGenerator(6, 64, seed=3, dedup=False)
        e = g.edges()
        packed = e[:, 0] * 64 + e[:, 1]
        assert np.unique(packed).size < e.shape[0]

    def test_deterministic(self):
        e1 = RecursiveVectorGenerator(10, 16, seed=9).edges()
        e2 = RecursiveVectorGenerator(10, 16, seed=9).edges()
        np.testing.assert_array_equal(e1, e2)

    def test_seed_changes_graph(self):
        e1 = RecursiveVectorGenerator(10, 16, seed=1).edges()
        e2 = RecursiveVectorGenerator(10, 16, seed=2).edges()
        assert e1.shape != e2.shape or not np.array_equal(e1, e2)

    def test_partition_independence(self):
        """The same graph comes out regardless of how the vertex range is
        split — the property the AVS-level partitioner relies on."""
        whole = RecursiveVectorGenerator(11, 16, seed=5).edges()
        parts = [RecursiveVectorGenerator(11, 16, seed=5).edges(lo, hi)
                 for lo, hi in ((0, 100), (100, 1000), (1000, 2048))]
        np.testing.assert_array_equal(whole, np.concatenate(parts))

    def test_block_size_does_not_change_degrees_within_block_grid(self):
        # Degrees are keyed per block, so the same block_size must give the
        # same graph even via different iteration ranges (covered above);
        # different block_size is allowed to give a different (equally
        # valid) realization.
        g1 = RecursiveVectorGenerator(10, 16, seed=5, block_size=256)
        g2 = RecursiveVectorGenerator(10, 16, seed=5, block_size=256)
        np.testing.assert_array_equal(g1.edges(), g2.edges())


class TestDegrees:
    def test_degrees_match_edges(self):
        g = RecursiveVectorGenerator(10, 16, seed=7)
        degrees = g.degrees()
        e = g.edges()
        realized = np.bincount(e[:, 0], minlength=1024)
        np.testing.assert_array_equal(degrees, realized)

    def test_partial_range(self):
        g = RecursiveVectorGenerator(10, 16, seed=7)
        np.testing.assert_array_equal(g.degrees()[17:300],
                                      g.degrees(17, 300))

    def test_bad_range_rejected(self):
        g = RecursiveVectorGenerator(8)
        with pytest.raises(ValueError):
            g.degrees(10, 5)
        with pytest.raises(ValueError):
            g.degrees(0, 10**9)
        with pytest.raises(ValueError):
            g.degrees(-1, 5)

    def test_empty_ranges_return_empty_results(self):
        """[k, k) is a valid (empty) scope range, matching the format
        layer's empty-AdjacencyBlock handling — not a ValueError."""
        g = RecursiveVectorGenerator(8)
        for k in (0, 5, 255, 256):
            assert g.degrees(k, k).shape == (0,)
            assert g.edges(k, k).shape == (0, 2)
            assert list(g.iter_blocks(k, k)) == []


class TestAdjacencyBlock:
    def test_iter_adjacency_consistent_with_edges(self):
        g = RecursiveVectorGenerator(9, 8, seed=11)
        pairs = [(u, tuple(vs)) for block in g.iter_blocks()
                 for u, vs in block.iter_adjacency()]
        assert len(pairs) == 512
        edges = {(u, v) for u, vs in pairs for v in vs}
        from_edges = set(map(tuple, g.edges().tolist()))
        assert edges == from_edges

    def test_destinations_sorted_per_source(self):
        g = RecursiveVectorGenerator(9, 16, seed=12)
        for block in g.iter_blocks():
            for _, vs in block.iter_adjacency():
                assert np.all(np.diff(vs) > 0)

    def test_block_helpers(self):
        g = RecursiveVectorGenerator(8, 8, seed=13)
        block = g.generate_block(0)
        assert isinstance(block, AdjacencyBlock)
        assert block.num_edges == int(block.degrees.sum())
        ea = block.edge_array()
        assert ea.shape == (block.num_edges, 2)


class TestDirections:
    def test_in_direction_flips(self):
        """AVS-I on a symmetric seed yields a graph whose in-degree
        distribution matches AVS-O's out-degree distribution."""
        out_g = RecursiveVectorGenerator(10, 16, seed=21, direction="out")
        in_g = RecursiveVectorGenerator(10, 16, seed=21, direction="in")
        out_deg = np.bincount(out_g.edges()[:, 0], minlength=1024)
        in_deg = np.bincount(in_g.edges()[:, 1], minlength=1024)
        # Same seed stream and symmetric matrix: identical distributions.
        np.testing.assert_array_equal(np.sort(out_deg), np.sort(in_deg))

    def test_in_direction_edge_orientation(self):
        g = RecursiveVectorGenerator(9, 8, seed=22, direction="in")
        e = g.edges()
        assert e.min() >= 0 and e.max() < 512


class TestEnginesAndIdeas:
    def test_reference_engine_runs(self):
        g = ReferenceGenerator(8, 8, seed=31)
        e = g.edges()
        assert e.shape[0] > 1500

    def test_idea_toggles_all_combinations(self):
        """All 8 idea combinations generate valid graphs of similar size
        (they are distributionally identical processes)."""
        sizes = []
        for i1 in (False, True):
            for i2 in (False, True):
                for i3 in (False, True):
                    g = ReferenceGenerator(8, 8, seed=32,
                                           ideas=IdeaToggles(i1, i2, i3))
                    e = g.edges()
                    packed = e[:, 0] * 256 + e[:, 1]
                    assert np.unique(packed).size == e.shape[0]
                    sizes.append(e.shape[0])
        assert max(sizes) - min(sizes) < 0.2 * max(sizes)

    def test_idea1_off_rebuilds_recvec(self):
        on = ReferenceGenerator(7, 8, seed=33,
                                      ideas=IdeaToggles(True, True, True))
        off = ReferenceGenerator(7, 8, seed=33,
                                       ideas=IdeaToggles(False, True, True))
        on.edges()
        off.edges()
        assert off.stats.recvec_builds > 2 * on.stats.recvec_builds

    def test_idea2_off_recurses_per_level(self):
        on = ReferenceGenerator(7, 8, seed=34,
                                      ideas=IdeaToggles(True, True, True))
        off = ReferenceGenerator(7, 8, seed=34,
                                       ideas=IdeaToggles(True, False, True))
        on.edges()
        off.edges()
        # Idea #2 off: exactly log|V| recursions per attempted edge; on:
        # roughly 0.24 * log|V| (Graph500's 1-bit fraction).
        assert off.stats.recursion_steps > 2 * on.stats.recursion_steps

    def test_idea3_off_draws_more_randoms(self):
        on = ReferenceGenerator(7, 8, seed=35,
                                      ideas=IdeaToggles(True, True, True))
        off = ReferenceGenerator(7, 8, seed=35,
                                       ideas=IdeaToggles(True, True, False))
        on.edges()
        off.edges()
        assert off.stats.random_draws > on.stats.random_draws

    def test_stats_accumulate(self):
        g = RecursiveVectorGenerator(8, 16, seed=36)
        e = g.edges()
        assert g.stats.edges == e.shape[0]
        assert g.stats.max_scope_size >= 16


class TestNoiseIntegration:
    def test_noisy_generation(self):
        g = RecursiveVectorGenerator(10, 16, seed=41, noise=0.1)
        e = g.edges()
        assert abs(e.shape[0] - g.num_edges) / g.num_edges < 0.06

    def test_noise_changes_graph(self):
        e0 = RecursiveVectorGenerator(10, 16, seed=41, noise=0.0).edges()
        e1 = RecursiveVectorGenerator(10, 16, seed=41, noise=0.1).edges()
        assert e0.shape != e1.shape or not np.array_equal(e0, e1)

    def test_noise_stack_shared_across_ranges(self):
        """Two generators with the same config draw the same noisy stack,
        so split generation still composes to one coherent graph."""
        whole = RecursiveVectorGenerator(10, 16, seed=42, noise=0.1).edges()
        a = RecursiveVectorGenerator(10, 16, seed=42, noise=0.1).edges(0, 512)
        b = RecursiveVectorGenerator(10, 16, seed=42,
                                     noise=0.1).edges(512, 1024)
        np.testing.assert_array_equal(whole, np.concatenate([a, b]))


class TestSaturatedScopes:
    def test_small_scale_hub_saturation(self):
        """At tiny scales the hub's expected degree exceeds |V|; the exact
        sampler must still deliver a full, duplicate-free scope."""
        g = RecursiveVectorGenerator(6, 32, seed=51)
        e = g.edges()
        deg = np.bincount(e[:, 0], minlength=64)
        assert deg.max() <= 64
        packed = e[:, 0] * 64 + e[:, 1]
        assert np.unique(packed).size == e.shape[0]

    def test_reference_engine_saturation(self):
        g = ReferenceGenerator(6, 32, seed=52)
        e = g.edges()
        packed = e[:, 0] * 64 + e[:, 1]
        assert np.unique(packed).size == e.shape[0]


class TestDrawAccounting:
    def test_random_draws_include_topup_redraws(self):
        """Every requested destination costs one uniform per chunk of
        the sampler's tables, whether it was kept or discarded as a
        duplicate and redrawn."""
        # Edge factor 4 keeps the hub scope under |V|/4, so no scope is
        # saturated, and at this seed no scope exhausts its top-up rounds
        # into the exact fallback (which replaces drawn edges without
        # counted draws).
        g = RecursiveVectorGenerator(12, 4, seed=1)
        g.edges()
        stats = g.stats
        assert stats.max_scope_size <= g.num_vertices >> 2
        assert stats.duplicates_discarded > 0
        chunks = g._sampler.uniforms_per_edge
        assert chunks == 2                       # 12 levels: 7 + 5
        assert stats.random_draws == \
            (stats.edges + stats.duplicates_discarded) * chunks


def _topup(g, keys, degrees, rng, sources):
    """``_dedup_topup`` over ``g``'s draw and exact fallback, bound as
    the kernel binds them for a run of ``sources``."""
    from repro.core.generator import _dedup_topup
    return _dedup_topup(
        keys, degrees, g.scale,
        lambda rows, counts: g._draw_keys(sources[rows], counts, rng),
        lambda row, size: g._sample_scope_exact(int(sources[row]), size,
                                                rng))


def _sort_everything_topup(g, draw, first_pass, degrees, rng, sources):
    """The dedup/top-up loop as it was before it kept a side array: every
    round re-sorts and re-counts all keys of the block.  ``draw`` is the
    kernel's ``(sources, counts, rng) -> packed keys``."""
    span = np.int64(g.num_vertices)
    keys = np.unique(first_pass)
    duplicates = first_pass.size - keys.size
    for _ in range(200):
        shortfall = degrees - np.bincount(keys // span,
                                          minlength=degrees.size)
        if not shortfall.any():
            return keys, duplicates
        drawn = draw(sources, shortfall, rng)
        fresh = np.setdiff1d(drawn, keys)
        duplicates += drawn.size - fresh.size
        keys = np.sort(np.concatenate([keys, fresh]))
    have = np.bincount(keys // span, minlength=degrees.size)
    for row in np.nonzero(degrees > have)[0]:
        exact = g._sample_scope_exact(int(sources[row]), int(degrees[row]),
                                      rng)
        keys = np.sort(np.concatenate([keys[keys // span != row],
                                       row * span + exact]))
    return keys, duplicates


class TestDedupTopup:
    """``_dedup_topup`` sorts a block once and pays per round only for
    what the round draws; it must stay draw for draw the loop that
    re-sorted everything."""

    CASES = {
        "graph500": dict(scale=10, seed=1),
        "skewed": dict(scale=10, seed=1,
                       seed_matrix=SeedMatrix.rmat(0.9, 0.05, 0.04, 0.01)),
        "exact-zero": dict(scale=10, seed=1,
                           seed_matrix=SeedMatrix.rmat(0.6, 0.0, 0.3, 0.1)),
        "noise": dict(scale=10, seed=1, noise=0.1),
        # Scale 12 at edge factor 16: the hub scope is saturated, and in
        # blocks of 64 some top-up rounds draw nothing but duplicates.
        "scale12-seed2": dict(scale=12, seed=2),
        "scale12-seed4": dict(scale=12, seed=4),
        "scale12-seed7": dict(scale=12, seed=7),
    }

    @pytest.mark.parametrize("block_size", [64, 4096])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_keys_duplicates_draws_and_stream(self, case, block_size):
        from repro.core.generator import _TAG_EDGE
        from repro.core.rng import stream
        new, old = (RecursiveVectorGenerator(block_size=block_size,
                                             **self.CASES[case])
                    for _ in range(2))
        fallbacks = []
        exact = new._sample_scope_exact
        new._sample_scope_exact = lambda *a: fallbacks.append(a) or exact(*a)
        saturated = 0
        for block in range(min(-(-new.num_vertices // block_size), 16)):
            sources = new._block_sources(block)
            degrees = new.block_degrees(block)
            # As the saturated path does: those scopes are drawn exactly.
            heavy = degrees > new.num_vertices >> 2
            saturated += int(heavy.sum())
            degrees = np.where(heavy, 0, degrees)
            results = []
            for g in (new, old):
                rng = stream(g.seed, _TAG_EDGE, block)
                first_pass = g._draw_keys(sources, degrees, rng)
                if g is new:
                    keys, have, dups = _topup(g, np.sort(first_pass),
                                              degrees, rng, sources)
                    np.testing.assert_array_equal(
                        have, np.bincount(keys >> g.scale,
                                          minlength=sources.size))
                else:
                    keys, dups = _sort_everything_topup(
                        g, g._draw_keys, first_pass, degrees, rng, sources)
                results.append((keys, dups, g.stats.random_draws,
                                rng.bit_generator.state))
            np.testing.assert_array_equal(results[0][0], results[1][0])
            assert results[0][1:] == results[1][1:]
        assert new.stats.random_draws > 0
        # Only a row whose support is smaller than its size (source 0 of
        # the exact-zero seed reaches destination 0 alone) exhausts the
        # rounds; a round of nothing but duplicates no longer ends them.
        assert bool(fallbacks) == (case == "exact-zero")
        if case.startswith("scale12"):
            assert saturated

    def test_topup_draws_the_ppswor_law(self):
        """Draw-until-distinct with rejection top-up and the exact
        fallback's PPSWOR are one law.  ``_draw_run`` is called directly,
        so no saturated pre-split bypasses the top-up: two-sample
        chi-square over the 56 5-sets of GRAPH500 source 0 at |V| = 8.
        The rarest 5-set has probability 5.3e-5, so 100 000 scopes per
        sample expect at least 5 in every cell."""
        from scipy import stats as sps

        from repro.core.generator import _digits_pmf, _draw_run, _ppswor
        g = RecursiveVectorGenerator(3, seed=0)
        n, size = 100_000, 5
        rng = np.random.default_rng(11)
        sources = np.zeros(n, dtype=np.int64)
        p = g.process.bit_probabilities(np.zeros(1, dtype=np.uint64))[0]
        pmf = _digits_pmf(np.column_stack([1.0 - p, p]))

        def stalled(row, k):
            raise AssertionError("the top-up fell back on PPSWOR")

        run, duplicates = _draw_run(
            sources, np.full(n, size), g.scale, True,
            lambda rows, counts: g._draw_keys(sources[rows], counts, rng),
            stalled)
        assert duplicates > n   # most scopes were topped up
        exact = np.array([_ppswor(pmf, size, rng) for _ in range(n)])
        cells = [m for m in range(256) if m.bit_count() == size]
        a, b = (np.bincount((1 << sets).sum(axis=1), minlength=256)[cells]
                for sets in (run.destinations.reshape(n, size), exact))
        chi2 = ((a - b) ** 2 / (a + b)).sum()
        assert sps.chi2.sf(chi2, len(cells) - 1) > 1e-4

    def test_a_round_draws_only_the_rows_still_short(self):
        g = RecursiveVectorGenerator(12, seed=7, block_size=512)
        calls = []
        draw = g._draw_keys

        def spy(sources, counts, rng):
            keys = draw(sources, counts, rng)
            # A copy: the kernel sorts, compacts and strips the drawn
            # array in place, and the first pass's becomes the block's.
            calls.append((sources, counts, keys.copy()))
            return keys

        g._draw_keys = spy
        low = g.num_vertices - 1
        rounds = round_rows = 0
        for block in range(g.num_vertices // g.block_size):
            calls.clear()
            g.generate_block(block)
            sources = g._block_sources(block)
            first_sources, degrees, first_keys = calls[0]
            np.testing.assert_array_equal(first_sources, sources)
            # The rows' distinct keys so far, kept apart from the kernel.
            known = np.unique(first_keys)
            for short_sources, counts, keys in calls[1:]:
                have = np.bincount(known >> g.scale, minlength=sources.size)
                short = np.flatnonzero(have < degrees)
                np.testing.assert_array_equal(short_sources, sources[short])
                np.testing.assert_array_equal(counts, (degrees - have)[short])
                known = np.union1d(known,
                                   short[keys >> g.scale] << g.scale
                                   | keys & low)
                rounds += 1
                round_rows += short_sources.size
        assert rounds > 50
        assert round_rows * 10 < rounds * g.block_size

    @pytest.mark.parametrize("a, b", [
        ([], []), ([], [3, 8]), ([3, 8], []), ([1, 4, 9], [2, 3, 10]),
        ([7, 8], [1, 2]), ([0], [2 ** 62]),
        # Long enough runs for the merge to gallop.
        (list(range(0, 2000, 2)), list(range(1, 600, 6)))])
    def test_merge_sorted_is_the_sorted_union(self, a, b):
        from repro.core.generator import _merge_sorted
        a, b = (np.array(x, dtype=np.int64) for x in (a, b))
        merged = _merge_sorted(a, b)
        assert merged.dtype == np.int64
        np.testing.assert_array_equal(merged, np.sort(np.concatenate([a, b])))

    #: Which of 800 distinct keys are the top-up's ``extra``: scattered;
    #: a run denser than a slice; all above or all below the kept keys.
    EXTRA = {"none": slice(0), "scattered": slice(None, None, 10),
             "dense-run": slice(100, 400), "above": slice(-300, None),
             "below": slice(300)}

    @pytest.mark.parametrize("slice_keys", [1, 5, 97, 1 << 16])
    @pytest.mark.parametrize("case", sorted(EXTRA))
    def test_in_place_dedup_and_merge_back(self, case, slice_keys,
                                           monkeypatch):
        """``unique_sorted`` leaves the distinct keys at the front of the
        array and ``_merge_back`` merges ``extra`` into it, at any slice
        size; the array is as long as the union or longer."""
        from repro.core.generator import _merge_back
        from repro.util import external_sort
        monkeypatch.setattr(tables, "_SLICE_KEYS", slice_keys)
        monkeypatch.setattr(external_sort, "_SLICE_KEYS", slice_keys)
        rng = np.random.default_rng(11)
        union = np.unique(rng.integers(0, 1 << 40, 800))
        chosen = np.zeros(union.size, dtype=bool)
        chosen[self.EXTRA[case]] = True
        kept, extra = union[~chosen], union[chosen]
        copies = rng.integers(1, 4, kept.size)
        copies[0] += max(0, union.size - int(copies.sum()))
        keys = np.repeat(kept, copies)
        distinct = external_sort.unique_sorted(keys)
        assert distinct.base is keys
        np.testing.assert_array_equal(distinct, kept)
        np.testing.assert_array_equal(keys[distinct.size:],
                                      np.repeat(kept, copies - 1))
        np.testing.assert_array_equal(
            _merge_back(keys, distinct.size, extra), union)


class TestFruitlessRound:
    """A top-up round that draws nothing but duplicates is just a round:
    the rows still short are drawn again, and the exact fallback —
    O(|V| log|V|) a row, impossible past scale 26 — is left to the rows
    that exhaust ``_MAX_TOPUP_ROUNDS``."""

    MID_WEIGHT_BLOCKS = (7, 11, 13, 14, 19, 21, 22, 25, 26, 28, 35, 37, 38,
                         41, 42, 44, 49, 50, 52, 56)

    @staticmethod
    def forbid_exact(g):
        def raiser(*args):
            raise AssertionError(f"exact fallback taken for {args[:2]}")
        g._sample_scope_exact = raiser

    def test_a_duplicate_then_a_fresh_key_finishes_by_rejection(self):
        g = RecursiveVectorGenerator(10, seed=1)
        self.forbid_exact(g)
        sources = g._block_sources(0)
        degrees = np.zeros(sources.size, dtype=np.int64)
        degrees[3] = 2
        answers = [[5], [9]]      # short by one: a duplicate, then fresh

        def draw(short_sources, counts, _rng):
            # Only row 3 is short, so it is row 0 of the call.
            assert short_sources.tolist() == [3] and counts.tolist() == [1]
            return np.array(answers.pop(0), dtype=np.int64)

        first = np.array([5, 5], dtype=np.int64) | 3 << g.scale
        g._draw_keys = draw
        keys, _, duplicates = _topup(g, first, degrees, None, sources)
        assert (keys - (3 << g.scale)).tolist() == [5, 9]
        assert duplicates == 2 and not answers

    def test_scale_27_mid_weight_blocks_generate(self):
        # Their last rounds are short by one or two edges, and such a
        # round draws only duplicates a few percent of the time.
        g = RecursiveVectorGenerator(27, seed=7)
        self.forbid_exact(g)
        for block_index in self.MID_WEIGHT_BLOCKS:
            block = g.generate_block(block_index)
            np.testing.assert_array_equal(block.degrees,
                                          g.block_degrees(block_index))

    def test_a_row_with_less_support_than_its_size_ends_in_the_fallback(self):
        # (0.6, 0, 0.3, 0.1): source 0 reaches destination 0 alone, and
        # its scope size is about |E| * 0.6^10 = 99.
        g = RecursiveVectorGenerator(
            10, seed=1, seed_matrix=SeedMatrix.rmat(0.6, 0.0, 0.3, 0.1))
        assert g.block_degrees(0)[0] > 1
        fallbacks = []
        exact = g._sample_scope_exact
        g._sample_scope_exact = lambda *a: fallbacks.append(a[0]) or exact(*a)
        block = g.generate_block(0)
        assert 0 in fallbacks
        assert block.destinations[:block.offsets[1]].tolist() == [0]


class TestDegenerateSeedEntries:
    """Regression: initiators with exact 0/1 entries force destination
    bits.  The samplers must short-circuit those levels — no division by
    zero in the single-uniform rescale, no randomness burned on certain
    events."""

    SELF_LOOPS = SeedMatrix.rmat(0.9, 0.0, 0.0, 0.1)   # dest bit == src bit
    ALL_ZERO = SeedMatrix.rmat(0.6, 0.0, 0.4, 0.0)     # dest always 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("engine", ["bitwise", "reference"])
    def test_batched_engines_force_bits(self, engine):
        # The oracle runs Algorithm 5 (RecVec[k] is exactly 0 below a bit
        # forced to 1, which sigma would divide by) and its per-level path.
        for ideas in (IdeaToggles(), IdeaToggles(reduce_recursions=False)):
            make = (RecursiveVectorGenerator if engine == "bitwise" else
                    functools.partial(ReferenceGenerator, ideas=ideas))
            g = make(6, 2, self.SELF_LOOPS, dedup=False, seed=3)
            e = g.edges()
            assert e.size and (e[:, 0] == e[:, 1]).all()
            g0 = make(6, 2, self.ALL_ZERO, dedup=False, seed=3)
            e0 = g0.edges()
            assert e0.size and (e0[:, 1] == 0).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alg5_skips_zero_width_intervals(self):
        """Float rounding can translate x onto the upper edge of the next
        interval; the clamp then used to pick a zero-width one below it
        (a level forced to 0), divide by sigma == 0 and set that bit."""
        from repro.core.reference import _sample_destination_alg5
        from repro.core.recvec import build_recvec

        class FixedRng:
            def uniform(self, low, high):
                return 0.00023486715171629986

        # b == 0: a destination bit can be 1 only where the source's is.
        u = 0b11111000
        recvec = build_recvec(SeedMatrix.rmat(0.57, 0.0, 0.19, 0.24), u, 8)
        v = _sample_destination_alg5(recvec, FixedRng(), True,
                                     ReferenceStats())
        assert v & ~u == 0

    @pytest.mark.parametrize("single_random", [True, False])
    def test_reference_bitpeel_engine(self, single_random):
        ideas = IdeaToggles(reuse_recvec=True, reduce_recursions=False,
                            single_random=single_random)
        g = ReferenceGenerator(6, 2, self.SELF_LOOPS, ideas=ideas,
                               dedup=False, seed=3)
        e = g.edges()
        assert e.size and (e[:, 0] == e[:, 1]).all()
        if not single_random:
            # All levels forced: the fresh-uniform mode draws nothing.
            assert g.stats.random_draws == 0

    def test_bitpeel_single_uniform_cannot_divide_by_zero(self):
        """Repeated rescaling can round x up to exactly 1.0; entering a
        p == 0 level in that state used to evaluate (1.0 - 1.0) / 0.0.
        Simulate the worst case by feeding the boundary uniform."""
        from repro.core.reference import _sample_destination_bitpeel

        class BoundaryRng:
            def random(self):
                return 1.0

        bit_probs = np.array([0.0, 0.5, 0.0, 1.0])
        v = _sample_destination_bitpeel(bit_probs, BoundaryRng(), True,
                                        ReferenceStats())
        # Bit 3 forced to 1, bits 2 and 0 forced to 0; x == 1.0 lands in
        # the upper branch of the one live level (bit 1).
        assert v == 0b1010


class TestBlockWorkingSet:
    """A block's working set is its own key array: the draw fills it a
    slice at a time, dedup compacts it and the top-up keys are merged
    back into it in place, and it becomes the block's destinations."""

    def test_the_hub_block_peaks_near_its_key_array(self):
        # The scale-18 hub block holds 19 % of |E|, 808 183 edges.
        gen = RecursiveVectorGenerator(18, seed=7)
        per_block = gen.degrees().reshape(-1, gen.block_size).sum(axis=1)
        hub = int(per_block.argmax())
        tracemalloc.start()
        try:
            block = gen.generate_block(hub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        edges = block.num_edges
        assert edges == per_block[hub] > 10 * tables._SLICE_KEYS
        assert peak <= 2.5 * 8 * edges
