"""End-to-end pipeline tests: generate → write → verify → convert →
analyze, exercising the public API the way a downstream user would."""

import numpy as np
import pytest

from repro import (GRAPH500, RecursiveVectorGenerator, ReferenceGenerator,
                   TrillionG)
from repro.analysis import (build_csr, bfs_parents, fit_kronecker_class_slope,
                            graph_stats, out_degrees, pagerank,
                            reachable_count, symmetrize)
from repro.dist import ClusterSpec
from repro.fit import GraphScaler
from repro.formats import get_format
from repro.rich_graph import (RichGraphGenerator, bibliographical_config,
                              load_config, save_config)
from repro.validate import validate_edges


class TestGenerateWriteVerifyPipeline:
    def test_full_pipeline_single_file(self, tmp_path):
        """generate -> adj6 -> verify -> convert -> tsv -> same graph."""
        tg = TrillionG(scale=12, edge_factor=16, seed=100)
        result = tg.generate_to(tmp_path / "g.adj6", fmt="adj6")

        edges = get_format("adj6").read_edges(result.paths[0])
        report = validate_edges(edges, tg.generator.num_vertices,
                                seed_matrix=GRAPH500,
                                expected_edges=tg.generator.num_edges)
        assert report.ok, str(report)

        tsv = get_format("tsv").write_edges(tmp_path / "g.tsv", edges,
                                            tg.generator.num_vertices)
        back = get_format("tsv").read_edges(tsv.path)
        np.testing.assert_array_equal(np.sort(back, axis=0),
                                      np.sort(edges, axis=0))

    def test_distributed_pipeline(self, tmp_path):
        """cluster generate -> parts -> merge -> validate -> analyze."""
        tg = TrillionG(scale=12, edge_factor=8, seed=101, block_size=256,
                       cluster=ClusterSpec(machines=2,
                                           threads_per_machine=2))
        result = tg.generate_to(tmp_path / "parts", fmt="adj6",
                                processes=1)
        parts = [get_format("adj6").read_edges(p) for p in result.paths]
        edges = np.concatenate([p for p in parts if p.size])
        assert validate_edges(edges, tg.generator.num_vertices,
                              seed_matrix=GRAPH500,
                              expected_edges=tg.generator.num_edges).ok
        stats = graph_stats(edges, tg.generator.num_vertices)
        assert stats.is_simple

    def test_multiformat_then_workload(self, tmp_path):
        """one generation pass -> 3 formats -> BFS + PageRank on CSR."""
        g = RecursiveVectorGenerator(11, 16, seed=102)
        blocks = list(g.iter_blocks())
        outputs = {name: tmp_path / f"w.{name}"
                   for name in ("tsv", "adj6", "csr6")}
        results = [get_format(name).write_blocks(path, blocks,
                                                 g.num_vertices)
                   for name, path in outputs.items()]
        assert len({r.num_edges for r in results}) == 1

        edges = get_format("csr6").read_edges(outputs["csr6"])
        und = symmetrize(edges, g.num_vertices)
        indptr, indices = build_csr(und, g.num_vertices)
        parent = bfs_parents(indptr, indices, 0, g.num_vertices)
        assert reachable_count(parent) > g.num_vertices // 2
        pr = pagerank(edges, g.num_vertices)
        assert abs(pr.sum() - 1.0) < 1e-9


class TestFitRegeneratePipeline:
    def test_observe_fit_scale_validate(self, tmp_path):
        """observed graph -> fit -> scale 4x -> validate against fit."""
        observed = RecursiveVectorGenerator(11, 12, seed=103).edges()
        scaler = GraphScaler.fit(observed, 2048)
        scaled = scaler.scale_to(13, seed=104)
        report = validate_edges(scaled, 1 << 13,
                                seed_matrix=scaler.seed_matrix,
                                expected_edges=12 * (1 << 13))
        assert report.ok, str(report)


class TestRichGraphPipeline:
    def test_schema_roundtrip_generation_and_queries(self, tmp_path):
        """config file -> rich graph -> triples -> per-predicate slopes."""
        cfg = bibliographical_config(1 << 12)
        path = save_config(cfg, tmp_path / "schema.json")
        loaded = load_config(path)
        gen = RichGraphGenerator(loaded, seed=105)
        typed = gen.generate()
        # The author rectangle keeps its Zipfian out-degree through the
        # whole save/load/generate pipeline.
        author = typed[0]
        src_lo, src_hi = loaded.vertex_range("researcher")
        deg = np.bincount(author.edges[:, 0] - src_lo,
                          minlength=src_hi - src_lo)
        assert abs(fit_kronecker_class_slope(deg) + 1.662) < 0.35

    def test_triples_to_tsv_per_predicate(self, tmp_path):
        cfg = bibliographical_config(1 << 10)
        gen = RichGraphGenerator(cfg, seed=106)
        count = gen.write_ntriples(tmp_path / "bib.nt")
        lines = (tmp_path / "bib.nt").read_text().strip().split("\n")
        assert len(lines) == count
        predicates = {line.split("\t")[1] for line in lines}
        assert predicates == {"author", "publishedIn", "presentedIn"}


class TestCrossEngineEndToEnd:
    @pytest.mark.parametrize("engine", ["bitwise", "reference"])
    def test_any_engine_through_full_stack(self, engine, tmp_path):
        make = {"bitwise": RecursiveVectorGenerator,
                "reference": ReferenceGenerator}[engine]
        g = make(10, 16, seed=107)
        fmt = get_format("adj6")
        res = fmt.write_blocks(tmp_path / f"{engine}.adj6", g.iter_blocks(),
                               g.num_vertices)
        edges = fmt.read_edges(res.path)
        assert validate_edges(edges, 1024, seed_matrix=GRAPH500,
                              expected_edges=g.num_edges).ok
