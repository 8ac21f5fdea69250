"""Behavioural tests for every scope-based generator."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.seed import GRAPH500, UNIFORM, SeedMatrix
from repro.models import (ALL_MODELS, BarabasiAlbertGenerator,
                          ErdosRenyiGenerator, FastKroneckerGenerator,
                          Graph500Generator, KroneckerAesGenerator,
                          RmatDiskGenerator, RmatMemGenerator,
                          TegGenerator, TrillionGSeqGenerator,
                          WespDiskGenerator, WespMemGenerator,
                          rmat_edge_batch, scramble_vertices)
from repro.errors import ConfigurationError, GenerationError


SEED_3X3 = SeedMatrix(np.array([[0.3, 0.12, 0.08], [0.12, 0.1, 0.05],
                                 [0.08, 0.05, 0.1]]))


@pytest.mark.parametrize("name,cls", sorted(ALL_MODELS.items()))
class TestAllModelsContract:
    """Every registered model obeys the shared generator contract."""

    @pytest.mark.parametrize("seed_matrix", [GRAPH500, SEED_3X3],
                             ids=["2x2", "3x3"])
    def test_ids_below_num_vertices_or_refused(self, name, cls,
                                               seed_matrix):
        """A model draws every id below its ``num_vertices``, or refuses
        the seed when it is built; none refuses a 2x2 one."""
        try:
            g = cls(5, 8, seed_matrix, seed=1)
        except ConfigurationError:
            assert seed_matrix.order > 2
            return
        edges = g.generate()
        assert edges.shape[0] > 0
        assert edges.min() >= 0 and edges.max() < g.num_vertices

    def test_edges_valid(self, name, cls):
        g = cls(8, 8, seed=1)
        e = g.generate()
        assert e.ndim == 2 and e.shape[1] == 2
        assert e.min() >= 0 and e.max() < 256

    def test_report_filled(self, name, cls):
        g = cls(8, 8, seed=1)
        e = g.generate()
        assert g.report.realized_edges == e.shape[0]
        assert g.report.elapsed_seconds > 0
        assert g.report.model == name

    def test_deterministic(self, name, cls):
        e1 = cls(8, 8, seed=42).generate()
        e2 = cls(8, 8, seed=42).generate()
        np.testing.assert_array_equal(e1, e2)

    def test_complexity_metadata(self, name, cls):
        assert cls.complexity.time != "?"
        assert cls.complexity.space != "?"


class TestRmat:
    def test_exactly_num_edges(self):
        g = RmatMemGenerator(9, 8, seed=3)
        assert g.generate().shape[0] == g.num_edges

    def test_no_duplicates(self):
        g = RmatMemGenerator(9, 8, seed=3)
        e = g.generate()
        assert np.unique(g.pack_edges(e)).size == e.shape[0]

    def test_edge_batch_respects_seed_skew(self):
        """With the Graph500 seed, quadrant alpha dominates, so low
        vertex IDs must be overrepresented."""
        rng = np.random.default_rng(0)
        batch = rmat_edge_batch(GRAPH500, 8, 20000, rng)
        low = (batch[:, 0] < 128).mean()
        assert low > 0.7  # alpha+beta = 0.76 expected

    def test_uniform_seed_is_uniform(self):
        rng = np.random.default_rng(0)
        batch = rmat_edge_batch(UNIFORM, 8, 40000, rng)
        low = (batch[:, 0] < 128).mean()
        assert abs(low - 0.5) < 0.02

    def test_disk_variant_no_duplicates(self):
        g = RmatDiskGenerator(9, 8, seed=3, batch_edges=1000)
        e = g.generate()
        assert np.unique(g.pack_edges(e)).size == e.shape[0]

    def test_disk_close_to_mem_count(self):
        # epsilon=0.01 is the paper's large-scale setting; at scale 10 the
        # duplicate rate is ~17%, so a matching epsilon is supplied here.
        mem = RmatMemGenerator(10, 8, seed=3).generate()
        disk = RmatDiskGenerator(10, 8, seed=3, batch_edges=2048,
                                 epsilon=0.25).generate()
        assert abs(disk.shape[0] - mem.shape[0]) / mem.shape[0] < 0.1

    def test_disk_epsilon_undershoots_at_small_scale(self):
        # Documents the paper's observation that the proper epsilon falls
        # as |E| grows: at small scale 0.01 leaves a visible shortfall.
        g = RmatDiskGenerator(10, 8, seed=3, batch_edges=2048)
        e = g.generate()
        assert 0.7 * g.num_edges < e.shape[0] < g.num_edges

    def test_disk_sort_phase_excludes_consumer_time(self):
        import time
        g = RmatDiskGenerator(9, 8, seed=3, batch_edges=256)
        chunks = 0
        for _ in g.iter_unique_key_chunks():
            time.sleep(0.01)
            chunks += 1
        assert chunks >= 5
        assert g.report.phase_seconds["external_sort"] < 0.01 * chunks / 2

    def test_disk_write_to_phases_cover_the_run(self, tmp_path):
        import time
        g = RmatDiskGenerator(10, 8, seed=3, batch_edges=2048)
        start = time.perf_counter()
        result = g.write_to(tmp_path / "g.adj6")
        wall = time.perf_counter() - start
        assert result.num_edges == g.report.realized_edges
        phases = g.report.phase_seconds
        assert set(phases) == {"generate", "external_sort", "write"}
        assert phases["write"] > 0
        assert 0 <= wall - g.report.elapsed_seconds < 0.01

    def test_disk_graph_does_not_depend_on_batch_edges(self):
        """``batch_edges`` bounds memory and nothing else: every batch
        size gives the one-batch graph."""
        one_batch = RmatDiskGenerator(12, 16, seed=5).generate()
        for batch_edges in (1000, 4096, 50_000):
            np.testing.assert_array_equal(
                RmatDiskGenerator(12, 16, seed=5,
                                  batch_edges=batch_edges).generate(),
                one_batch)

    def test_disk_peak_memory_bounded_by_batch(self):
        g = RmatDiskGenerator(10, 8, seed=3, batch_edges=512)
        g.generate()
        assert g.report.peak_memory_bytes == 512 * 16


@pytest.mark.parametrize("cls,kwargs", [
    (RmatMemGenerator, {"num_edges": 0}),
    (FastKroneckerGenerator, {"num_edges": 0}),
    (RmatDiskGenerator, {"batch_edges": 0}),
    (RmatDiskGenerator, {"epsilon": -0.01}),
    (WespMemGenerator, {"num_workers": 0}),
    (WespMemGenerator, {"epsilon": -0.01}),
    (WespDiskGenerator, {"batch_edges": 0}),
    (WespDiskGenerator, {"num_workers": 0}),
    (WespDiskGenerator, {"epsilon": -0.01}),
], ids=lambda value: getattr(value, "name", None) or "-".join(value))
def test_wes_models_reject_invalid_settings(cls, kwargs):
    """Only the constructor is called: before it validated,
    ``batch_edges=0`` made RMAT-disk's generate loop spill empty runs
    forever and RMAT/p-disk die in ``range(0, n, 0)``, a negative epsilon
    silently shrank the target and ``num_workers=0`` raised a bare
    ``ValueError``."""
    with pytest.raises(ConfigurationError):
        cls(8, 8, seed=1, **kwargs)


@pytest.mark.parametrize("cls,setting", [
    (TrillionGSeqGenerator, "direction"),
    (TrillionGSeqGenerator, "dedup"),
    (TrillionGSeqGenerator, "degree_method"),
    (TegGenerator, "noise"),
    (TegGenerator, "block_size"),
    (Graph500Generator, "block_size"),
    (Graph500Generator, "degree_method"),
], ids=lambda value: getattr(value, "name", None) or value)
def test_avs_models_take_only_their_own_settings(cls, setting):
    """Each model builds its generator from one recipe but takes only
    the recipe fields it names (TrillionG/seq: noise and block_size;
    Graph500: noise), not every field the recipe has."""
    with pytest.raises(TypeError, match=setting):
        cls(8, 8, seed=1, **{setting: None})


class TestFastKronecker:
    def test_n2_matches_rmat_distribution(self):
        """FastKronecker with a 2x2 seed is RMAT (same stochastic process,
        same per-batch implementation)."""
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        from repro.models import fast_kronecker_edge_batch
        a = rmat_edge_batch(GRAPH500, 8, 1000, rng1)
        b = fast_kronecker_edge_batch(GRAPH500, 8, 1000, rng2)
        np.testing.assert_array_equal(a, b)

    def test_3x3_seed(self):
        seed3 = SeedMatrix(np.array([[0.3, 0.1, 0.1],
                                     [0.1, 0.1, 0.05],
                                     [0.1, 0.05, 0.1]]))
        # |V| = 3^5 is not a power of two: bypass scale by giving num_edges.
        g = FastKroneckerGenerator.__new__(FastKroneckerGenerator)
        with pytest.raises(ConfigurationError):
            FastKroneckerGenerator(8, 8, seed_matrix=seed3)

    def test_4x4_seed_works(self):
        entries = np.full((4, 4), 1.0 / 16)
        g = FastKroneckerGenerator(8, 8, seed_matrix=SeedMatrix(entries),
                                   seed=1)
        assert g.depth == 4  # 4^4 = 2^8
        e = g.generate()
        assert e.shape[0] == g.num_edges


class TestKroneckerAes:
    def test_refuses_large_scale(self):
        with pytest.raises(ConfigurationError):
            KroneckerAesGenerator(20, 16)

    def test_edge_count_near_target(self):
        g = KroneckerAesGenerator(10, 8, seed=1)
        e = g.generate()
        # AES realizes ~|E| edges in expectation (cells clipped at p=1
        # lose a little mass).
        assert abs(e.shape[0] - g.num_edges) / g.num_edges < 0.15

    def test_no_duplicates_by_construction(self):
        g = KroneckerAesGenerator(9, 8, seed=1)
        e = g.generate()
        assert np.unique(g.pack_edges(e)).size == e.shape[0]

    def test_same_family_as_rmat(self):
        """AES and WES generate the same graph family: their out-degree
        distributions agree (KS test)."""
        aes = KroneckerAesGenerator(10, 8, seed=2).generate()
        wes = RmatMemGenerator(10, 8, seed=3).generate()
        d1 = np.bincount(aes[:, 0], minlength=1024)
        d2 = np.bincount(wes[:, 0], minlength=1024)
        assert sps.ks_2samp(d1, d2).pvalue > 1e-4


class TestWesp:
    def test_mem_and_disk_agree(self):
        mem = WespMemGenerator(9, 8, seed=4, num_workers=3).generate()
        disk = WespDiskGenerator(9, 8, seed=4, num_workers=3,
                                 batch_edges=512).generate()
        np.testing.assert_array_equal(mem, disk)

    def test_mem_and_disk_are_one_map(self):
        """Each worker's 264 766 keys span two default batches in
        RMAT/p-mem and six 50 000-key batches in RMAT/p-disk: both draw
        the same keys through one map step, so they hold one graph."""
        mem = WespMemGenerator(16, 16, seed=7, num_workers=4).generate()
        disk = WespDiskGenerator(16, 16, seed=7, num_workers=4,
                                 batch_edges=50_000).generate()
        np.testing.assert_array_equal(disk, mem)

    def test_no_duplicates_after_merge(self):
        g = WespMemGenerator(9, 8, seed=4, num_workers=4)
        e = g.generate()
        assert np.unique(g.pack_edges(e)).size == e.shape[0]

    def test_worker_count_changes_realization_not_family(self):
        e2 = WespMemGenerator(10, 8, seed=4, num_workers=2).generate()
        e8 = WespMemGenerator(10, 8, seed=4, num_workers=8).generate()
        d2 = np.bincount(e2[:, 0], minlength=1024)
        d8 = np.bincount(e8[:, 0], minlength=1024)
        assert sps.ks_2samp(d2, d8).pvalue > 1e-4

    def test_skew_recorded(self):
        g = WespMemGenerator(9, 8, seed=4, num_workers=4)
        g.generate()
        assert g.skew >= 1.0

    def test_phases_present(self):
        g = WespDiskGenerator(8, 8, seed=4, num_workers=2)
        g.generate()
        assert {"generate", "shuffle", "merge"} <= set(
            g.report.phase_seconds)

    def test_disk_merge_phase_excludes_consumer_time(self):
        import time
        g = WespDiskGenerator(9, 8, seed=4, num_workers=2, batch_edges=256)
        chunks = 0
        for _ in g.iter_unique_key_chunks():
            time.sleep(0.01)
            chunks += 1
        assert chunks >= 5
        assert g.report.phase_seconds["merge"] < 0.01 * chunks / 2


class TestTeG:
    def test_degrees_statically_fixed(self):
        """TeG's out-degrees are deterministic: two different random seeds
        produce identical out-degree sequences (only destinations move)."""
        e1 = TegGenerator(9, 8, seed=1).generate()
        e2 = TegGenerator(9, 8, seed=2).generate()
        d1 = np.bincount(e1[:, 0], minlength=512)
        d2 = np.bincount(e2[:, 0], minlength=512)
        np.testing.assert_array_equal(d1, d2)

    def test_stochastic_models_differ_across_seeds(self):
        e1 = TrillionGSeqGenerator(9, 8, seed=1).generate()
        e2 = TrillionGSeqGenerator(9, 8, seed=2).generate()
        d1 = np.bincount(e1[:, 0], minlength=512)
        d2 = np.bincount(e2[:, 0], minlength=512)
        assert not np.array_equal(d1, d2)

    def test_fewer_distinct_degree_values_than_stochastic(self):
        """The static fixing collapses the degree distribution's support —
        the visual failure in Figure 8."""
        teg = TegGenerator(11, 16, seed=1).generate()
        tg = TrillionGSeqGenerator(11, 16, seed=1).generate()
        teg_support = np.unique(np.bincount(teg[:, 0], minlength=2048)).size
        tg_support = np.unique(np.bincount(tg[:, 0], minlength=2048)).size
        assert teg_support < 0.7 * tg_support


class TestGraph500Model:
    def test_scramble_is_bijection(self):
        for scale in (4, 5, 8, 11):
            xs = np.arange(1 << scale, dtype=np.int64)
            ys = scramble_vertices(xs, scale)
            assert np.unique(ys).size == 1 << scale
            assert ys.min() >= 0 and ys.max() < (1 << scale)

    def test_scramble_moves_hub(self):
        ys = scramble_vertices(np.arange(16, dtype=np.int64), 10)
        assert not np.array_equal(ys, np.arange(16))

    def test_csr_construction(self):
        g = Graph500Generator(9, 8, seed=6)
        e = g.generate()
        indptr, indices = g.csr
        assert indptr[-1] == e.shape[0]
        assert indices.size == e.shape[0]
        # CSR row u holds exactly u's destinations.
        deg = np.bincount(e[:, 0], minlength=512)
        np.testing.assert_array_equal(np.diff(indptr), deg)

    def test_construction_overhead_ratio(self):
        g = Graph500Generator(9, 8, seed=6)
        g.generate()
        assert 0.0 < g.construction_overhead_ratio() < 1.0

    def test_noise_default(self):
        assert Graph500Generator(8, 8).noise == 0.1


class TestBarabasiAlbert:
    def test_power_law_tail(self):
        g = BarabasiAlbertGenerator(12, 8, seed=7)
        e = g.generate()
        deg = np.bincount(e.ravel(), minlength=4096)
        # Heavy tail: max total degree far above the mean.
        assert deg.max() > 10 * deg.mean()

    def test_rejects_huge_edge_factor(self):
        with pytest.raises(ConfigurationError):
            BarabasiAlbertGenerator(4, 100)

    def test_new_vertices_attach_m_edges(self):
        g = BarabasiAlbertGenerator(10, 4, seed=7)
        e = g.generate()
        out_deg = np.bincount(e[:, 0], minlength=1024)
        m = g.edges_per_vertex
        assert np.all(out_deg[m + 1:] == m)


class TestErdosRenyi:
    def test_exact_count_distinct(self):
        g = ErdosRenyiGenerator(10, 8, seed=8)
        e = g.generate()
        assert e.shape[0] == g.num_edges
        assert np.unique(g.pack_edges(e)).size == e.shape[0]

    def test_more_edges_than_cells_hit_the_round_cap(self):
        """|E| = 64 distinct edges of 4 x 4 = 16 cells: no number of
        top-up rounds collects them, so the cap raises, not loops."""
        g = ErdosRenyiGenerator(2, 16, seed=1)
        with pytest.raises(GenerationError, match="distinct edges"):
            g.generate()

    def test_matches_uniform_rmat(self):
        """Paper Section 8: ER == RMAT with the all-0.25 seed."""
        er = ErdosRenyiGenerator(10, 8, seed=9).generate()
        rmat = RmatMemGenerator(10, 8, seed_matrix=UNIFORM,
                                seed=10).generate()
        d1 = np.bincount(er[:, 0], minlength=1024)
        d2 = np.bincount(rmat[:, 0], minlength=1024)
        assert sps.ks_2samp(d1, d2).pvalue > 1e-4
