"""End-to-end telemetry behavior on the real pipeline: the cost of the
recording hooks, the paper-internals counters and the span tree."""

from __future__ import annotations

import time

from repro.core.generator import RecursiveVectorGenerator
from repro.core.reference import ReferenceGenerator
from repro.formats import get_format
from repro.formats.adj6 import _SLICE_EDGES
from repro.formats.pipeline import QUEUE_GAUGE
from repro.system import TrillionG
from repro.telemetry import Stopwatch, registry, span

SCALE = 16          # |V| = 65536, |E| = 1M


def _generate(tmp_path, name, scale=SCALE):
    tg = TrillionG(scale, edge_factor=16, seed=7)
    return tg.generate_to(tmp_path / name, fmt="adj6")


def _best_of(repeats, work):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def test_recording_hooks_under_five_percent():
    """Telemetry always records, so its hooks must stay a small share of
    a scale-16 sweep.  End-to-end A/B timing drowns in scheduler noise
    on small boxes, so replay the hooks of one sweep directly — every
    run's generator metrics; per encoded slice the writer's encode
    stopwatch, the sink's write stopwatch and queue gauge; the block
    counter and one span per run — and compare their total with the
    sweep's wall time (best of three each)."""
    gen = RecursiveVectorGenerator(SCALE, 16, seed=7)
    runs = []

    def sweep():
        runs[:] = [(block, block.degrees) for block in gen.iter_blocks()]

    sweep_seconds = _best_of(3, sweep)
    before = (0, 0)

    def hooks():
        reg = registry()
        encode, write = Stopwatch(), Stopwatch()
        gauge = reg.gauge(QUEUE_GAUGE, mode="max")
        blocks = reg.counter("format.blocks_encoded")
        for block, degrees in runs:
            gen._record_run(block, degrees, before)
            for _ in range(block.num_edges // _SLICE_EDGES + 2):
                with encode:
                    pass
                gauge.set(1)
                write.start()
                write.stop()
            blocks.inc()
            with span("format.write_blocks"):
                pass

    hook_seconds = _best_of(3, hooks)
    assert hook_seconds < 0.05 * sweep_seconds, \
        (hook_seconds, sweep_seconds, len(runs))


def test_paper_internal_counters(tmp_path):
    # The reference engine is the only one that builds RecVecs.
    gen = ReferenceGenerator(12, 16, seed=7)
    result = get_format("adj6").write_blocks(
        tmp_path / "counters.adj6", gen.iter_blocks(), gen.num_vertices)
    metrics = registry().snapshot()
    edges = metrics["generator.edges"]["value"]
    assert edges == result.num_edges
    # RecVec reuse (perf idea #1), the reference's own stats: one
    # uniform per destination attempt, a hit or a miss.
    stats = gen.stats
    assert stats.recvec_reuse_misses > 0
    assert stats.recvec_reuse_hits + stats.recvec_reuse_misses \
        == stats.random_draws == metrics["generator.random_draws"]["value"]
    # Sampled-degree histogram covers every vertex scope.
    assert metrics["generator.scope_size"]["count"] > 0
    # Formats layer: bytes/edges written match the result.
    assert metrics["format.edges_written"]["value"] == result.num_edges
    assert metrics["format.bytes_written"]["value"] == result.bytes_written
    assert metrics["format.blocks_encoded"]["value"] \
        == metrics["generator.blocks"]["value"]


def test_span_tree_covers_generate_and_write(tmp_path):
    result = _generate(tmp_path, "spans.adj6", scale=12)
    (root,) = result.telemetry["spans"]
    assert root["name"] == "generate"
    assert root["attrs"]["scale"] == 12
    (write,) = root["children"]
    assert write["name"] == "format.write_blocks"
    assert 0.0 < write["total_seconds"] <= root["total_seconds"] + 1e-9


def test_progress_callback_reaches_total(tmp_path):
    seen = []
    tg = TrillionG(12, edge_factor=16, seed=7)
    result = tg.generate_to(tmp_path / "p.adj6", fmt="adj6",
                            progress=seen.append)
    assert seen, "progress callback never invoked"
    assert seen == sorted(seen)
    assert seen[-1] == result.num_edges
