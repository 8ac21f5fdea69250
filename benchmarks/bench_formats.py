"""Format throughput benchmarks (Section 5's "the graph format affects the
performance ... but is frequently overlooked").

Measures write and read throughput of the three formats on the same graph
and checks the paper's qualitative claims: binary formats are faster and
smaller than TSV at scale (here sizes invert only because small-scale ids
are short — the size ordering at realistic id widths is asserted in
``tests/formats``).

Three artifacts matter beyond the printed tables:

- ``test_block_adj6_beats_per_vertex`` and
  ``test_block_tsv_beats_per_vertex`` are the CI perf-smoke gates for
  the block-streaming output path: encoding whole ``AdjacencyBlock``s
  must beat the per-vertex ``writer.add`` loop at scale 18 (ADJ6 2x,
  TSV 5x).
- ``test_generate_stays_under_rss_cap`` is the CI perf-smoke gate for a
  block's working set: a fresh ``trilliong generate`` process at scales
  20 and 22, ADJ6 and TSV, must peak below one cap, which the
  whole-block scratch, the whole-block encode and the whole hub block
  of before each exceeded.
- ``test_rich_stays_under_rss_cap`` is the same gate for ``trilliong
  rich``: its rules are drawn in ERV runs of at most ``_BLOCK_EDGES``
  edges and leave through the TSV block encoder, where the per-triple
  f-string loop of before held a whole rule's edges and its text.
- ``test_nary_stays_under_rss_cap`` holds ``trilliong nary`` to the
  ``generate`` cap: its grid blocks are cut into the same runs of at
  most ``_BLOCK_EDGES`` edges and stream through ``write_blocks``, where
  it built the whole ``(m, 2)`` edge array before.
- ``test_emit_bench_json`` writes ``BENCH_formats.json`` at the repo root
  (scale, format, engine, edges/s, MB/s) so later PRs have a perf
  trajectory to compare against.
"""

import json
import re
import tempfile
import time
from pathlib import Path

import pytest

from benchmarks.bench_extmem import _VMHWM_KB, _run_fresh
from repro.core.generator import _BLOCK_EDGES, RecursiveVectorGenerator
from repro.formats import get_format, write_many

SCALE = 13
SMOKE_SCALE = 18

#: ``generate`` in a fresh process, default allocator.  At scale 20 the
#: hub block holds 1.9 M edges.  ADJ6 peaked at 99 MiB while a block's
#: scratch was four arrays as long as its draw, and at 66 MiB with the
#: key array as the working set; TSV at 78 MiB while its encoder built a
#: block's whole text, and both at about 62 MiB once a block leaves the
#: encoder a slice at a time.  A block was then still whole in memory,
#: so scale 22 (4.3 M hub edges) peaked at 89 MiB.  Since a block is
#: generated in runs of at most ``_BLOCK_EDGES`` edges, ADJ6 peaks at
#: 43.6 MiB at scale 20 and 45.0 at 22, TSV at 46.6 and 48.0 (2 vCPUs,
#: numpy 2.4; ``import repro.cli, numpy.random`` alone is 37.6 MiB).
RSS_SCALES = (20, 22)
RSS_CAP_BYTES = 56 * 1024 * 1024

#: ``rich --vertices 262144 --schema bibliographical --seed 3`` in a fresh
#: process, default allocator: 1 838 122 triples.  It peaked at 110 MiB
#: while ERV drew a whole rule at once and its triples were f-strings,
#: and at 54.6 MiB once a rule is drawn a run at a time and written by
#: the TSV block encoder; the cap adds the ``generate`` gate's 12 MiB.
RICH_VERTICES = 1 << 18
RICH_RSS_CAP_BYTES = 67 * 1024 * 1024

#: ``nary`` with a 3 x 3 seed at depth 11 (2 839 317 edges, seed 3, ADJ6)
#: in a fresh process: 218 MiB while it built the whole edge array, and
#: 42 MiB drawn in runs and streamed, below ``RSS_CAP_BYTES``.
NARY_MATRIX = "0.3,0.12,0.08,0.12,0.1,0.05,0.08,0.05,0.1"
NARY_DEPTH = 11

_REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def generator():
    return RecursiveVectorGenerator(SCALE, 16, seed=9)


def _throughput_row(fmt_name, result, seconds):
    mb = result.bytes_written / 2**20
    return [fmt_name, result.num_edges,
            f"{result.num_edges / seconds:,.0f}",
            f"{mb / seconds:.1f}"]


@pytest.mark.parametrize("fmt_name", ["tsv", "adj6", "csr6"])
def test_write_throughput(benchmark, generator, fmt_name, tmp_path, table):
    fmt = get_format(fmt_name)

    def write():
        t0 = time.perf_counter()
        result = fmt.write_blocks(tmp_path / f"w.{fmt_name}",
                                  generator.iter_blocks(),
                                  generator.num_vertices)
        return result, time.perf_counter() - t0

    result, seconds = benchmark.pedantic(write, rounds=3, iterations=1)
    table(f"Write throughput ({fmt_name}, scale {SCALE}, block path)",
          ["format", "edges", "edges/s", "MB/s"],
          [_throughput_row(fmt_name, result, seconds)])
    assert result.num_edges > 100000


@pytest.mark.parametrize("fmt_name", ["tsv", "adj6", "csr6"])
def test_read_throughput(benchmark, generator, fmt_name, tmp_path, table):
    fmt = get_format(fmt_name)
    path = tmp_path / f"r.{fmt_name}"
    written = fmt.write_blocks(path, generator.iter_blocks(),
                               generator.num_vertices)

    def read():
        t0 = time.perf_counter()
        edges = fmt.read_edges(path)
        return edges, time.perf_counter() - t0

    edges, seconds = benchmark.pedantic(read, rounds=3, iterations=1)
    table(f"Read throughput ({fmt_name}, scale {SCALE})",
          ["format", "edges", "edges/s", "MB/s"],
          [[fmt_name, edges.shape[0], f"{edges.shape[0] / seconds:,.0f}",
            f"{written.bytes_written / 2**20 / seconds:.1f}"]])
    assert edges.shape[0] > 100000


def test_format_write_times_comparable(benchmark, generator, tmp_path,
                                       table):
    """Generation + write per format, the Figure 11(b) comparison in
    small.  All three block encoders are a few numpy passes per block
    (TSV about 40 ns/edge, ADJ6 about 20), so at this scale the kernel
    dominates and the three times sit within tens of percent of each
    other; the paper's TSV-vs-ADJ6 gap is bytes on disk, which a
    page-cached scale-13 file does not show.  The assertion is that no
    format is pathologically slow — a per-edge Python loop or string
    path back in an encoder shows here as well over 5x.  The size
    ordering is asserted in ``tests/formats`` at realistic id widths.
    """

    def run():
        rows = {}
        for name in ("tsv", "adj6", "csr6"):
            fmt = get_format(name)
            t0 = time.perf_counter()
            result = fmt.write_blocks(tmp_path / f"cmp.{name}",
                                      generator.iter_blocks(),
                                      generator.num_vertices)
            rows[name] = (time.perf_counter() - t0, result)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table(f"Format write seconds (scale {SCALE}, includes generation)",
          ["format", "seconds", "edges/s", "MB/s"],
          [[name, round(seconds, 4),
            f"{result.num_edges / seconds:,.0f}",
            f"{result.bytes_written / 2**20 / seconds:.1f}"]
           for name, (seconds, result) in rows.items()])
    times = [seconds for seconds, _ in rows.values()]
    assert max(times) < 5 * min(times)


def test_multi_write_cheaper_than_separate(benchmark, generator,
                                           tmp_path):
    """One teed pass vs three separate passes: the tee must win (it
    generates once instead of three times)."""

    def run():
        t0 = time.perf_counter()
        write_many(generator.iter_adjacency(), generator.num_vertices,
                   {n: tmp_path / f"tee.{n}"
                    for n in ("tsv", "adj6", "csr6")})
        teed = time.perf_counter() - t0
        t0 = time.perf_counter()
        for n in ("tsv", "adj6", "csr6"):
            get_format(n).write(tmp_path / f"sep.{n}",
                                generator.iter_adjacency(),
                                generator.num_vertices)
        separate = time.perf_counter() - t0
        return teed, separate

    teed, separate = benchmark.pedantic(run, rounds=1, iterations=1)
    assert teed < separate


def _time_per_vertex(fmt, path, blocks, num_vertices):
    """The pre-block baseline: one ``writer.add`` call per vertex."""
    writer = fmt.open_writer(path, num_vertices)
    t0 = time.perf_counter()
    with writer:
        for block in blocks:
            for u, vs in block.iter_adjacency():
                writer.add(u, vs)
    return time.perf_counter() - t0, writer.result


def _time_blocks(fmt, path, blocks, num_vertices):
    writer = fmt.open_writer(path, num_vertices)
    t0 = time.perf_counter()
    with writer:
        for block in blocks:
            writer.add_block(block)
    return time.perf_counter() - t0, writer.result


def _block_speedup_over_per_vertex(fmt_name, tmp_path, table):
    """Write the same scale-18 blocks through ``add_block`` and through
    the per-vertex ``add`` loop (generation excluded), assert the two
    files are byte-identical, print the table, return the speedup."""
    gen = RecursiveVectorGenerator(SMOKE_SCALE, 16, seed=9)
    blocks = list(gen.iter_blocks())
    fmt = get_format(fmt_name)
    pv_path, blk_path = tmp_path / f"pv.{fmt_name}", tmp_path / f"blk.{fmt_name}"
    per_vertex_s, pv_result = _time_per_vertex(
        fmt, pv_path, blocks, gen.num_vertices)
    block_s, blk_result = _time_blocks(
        fmt, blk_path, blocks, gen.num_vertices)
    speedup = per_vertex_s / block_s
    table(f"{fmt_name.upper()} write path (scale {SMOKE_SCALE}, "
          f"generation excluded)",
          ["path", "seconds", "edges/s", "MB/s"],
          [["per-vertex", round(per_vertex_s, 3),
            f"{pv_result.num_edges / per_vertex_s:,.0f}",
            f"{pv_result.bytes_written / 2**20 / per_vertex_s:.1f}"],
           ["block", round(block_s, 3),
            f"{blk_result.num_edges / block_s:,.0f}",
            f"{blk_result.bytes_written / 2**20 / block_s:.1f}"],
           ["speedup", f"{speedup:.1f}x", "", ""]])
    assert pv_path.read_bytes() == blk_path.read_bytes()
    return speedup


def test_block_adj6_beats_per_vertex(tmp_path, table):
    """CI perf smoke: the vectorized block encoder must beat the
    per-vertex loop on the write path (generation excluded) — and the
    two must produce byte-identical files.
    """
    speedup = _block_speedup_over_per_vertex("adj6", tmp_path, table)
    assert speedup > 2.0, (
        f"block ADJ6 only {speedup:.2f}x over per-vertex at scale "
        f"{SMOKE_SCALE}; the vectorized encoder regressed")


def test_block_tsv_beats_per_vertex(tmp_path, table):
    """CI perf smoke: the lane-table TSV block encoder against the
    per-vertex ``add`` loop (one f-string per edge) — byte-identical
    files, and at least 5x the edges/s (measured about 25x on 2 vCPUs,
    far above timer noise at this scale).
    """
    speedup = _block_speedup_over_per_vertex("tsv", tmp_path, table)
    assert speedup >= 5.0, (
        f"block TSV only {speedup:.2f}x over per-vertex at scale "
        f"{SMOKE_SCALE}; the lane-table encoder regressed")


@pytest.mark.parametrize("scale", RSS_SCALES)
@pytest.mark.parametrize("fmt_name", ["adj6", "tsv"])
def test_generate_stays_under_rss_cap(fmt_name, scale, table):
    """CI perf smoke: a block is generated in runs of at most
    ``_BLOCK_EDGES`` edges, a run's working set is its key array plus
    slice-sized scratch, and its bytes leave the encoder a slice at a
    time, so ``generate`` in a fresh process peaks below one cap at
    every scale — the hub block's growth no longer shows."""
    gen = RecursiveVectorGenerator(scale, 16, seed=7)
    hub_edges = gen.block_total(0)
    with tempfile.TemporaryDirectory(prefix="bench-formats-rss-") as work:
        out = _run_fresh(
            "from repro.cli import main\n"
            "main(['generate', '--scale',\n"
            f"      '{scale}', '--format', '{fmt_name}',\n"
            "      '--seed', '7',\n"
            f"      '--output', {str(Path(work) / 'g')!r}])\n"
            f"print({_VMHWM_KB})\n")
    edges = int(re.search(r"\|E\|=(\d+)", out).group(1))
    rss = int(out.split()[-1]) * 1024
    table(f"generate peak RSS (scale {scale}, {fmt_name}, "
          "fresh process)",
          ["metric", "value"],
          [["|E|", f"{edges:,}"],
           ["hub block edges", f"{hub_edges:,}"],
           ["edges per run", f"<= {_BLOCK_EDGES:,} or one scope"],
           ["peak RSS", f"{rss / 2**20:,.1f} MiB"],
           ["RSS cap", f"{RSS_CAP_BYTES / 2**20:,.0f} MiB"]])
    assert rss < RSS_CAP_BYTES, (
        f"generate --scale {scale} --format {fmt_name} peaked at "
        f"{rss / 2**20:.0f} MiB, over the {RSS_CAP_BYTES / 2**20:.0f} MiB "
        "cap: a run's scratch or its encoded bytes are no longer bounded")


def test_rich_stays_under_rss_cap(table):
    """CI perf smoke: ``trilliong rich`` in a fresh process peaks below a
    cap — a rule is drawn a run at a time and its triples leave the TSV
    block encoder a slice at a time, so no rule is whole in memory."""
    with tempfile.TemporaryDirectory(prefix="bench-formats-rich-") as work:
        out = _run_fresh(
            "from repro.cli import main\n"
            f"main(['rich', '--vertices', '{RICH_VERTICES}',\n"
            "      '--schema', 'bibliographical', '--seed', '3',\n"
            f"      '--output', {str(Path(work) / 'bib.nt')!r}])\n"
            f"print({_VMHWM_KB})\n")
    triples = int(re.search(r"triples=(\d+)", out).group(1))
    rss = int(out.split()[-1]) * 1024
    table(f"rich peak RSS (|V| = {RICH_VERTICES:,}, bibliographical, "
          "fresh process)",
          ["metric", "value"],
          [["triples", f"{triples:,}"],
           ["peak RSS", f"{rss / 2**20:,.1f} MiB"],
           ["RSS cap", f"{RICH_RSS_CAP_BYTES / 2**20:,.0f} MiB"]])
    assert rss < RICH_RSS_CAP_BYTES, (
        f"rich --vertices {RICH_VERTICES} peaked at {rss / 2**20:.0f} MiB, "
        f"over the {RICH_RSS_CAP_BYTES / 2**20:.0f} MiB cap: a rule or its "
        "triples are held whole again")


def test_nary_stays_under_rss_cap(table):
    """CI perf smoke: ``trilliong nary`` in a fresh process peaks below
    the ``generate`` cap — both are bounded by one run of
    ``_BLOCK_EDGES`` edges, not by the graph."""
    with tempfile.TemporaryDirectory(prefix="bench-formats-nary-") as work:
        out = _run_fresh(
            "from repro.cli import main\n"
            f"main(['nary', '--matrix', '{NARY_MATRIX}',\n"
            f"      '--depth', '{NARY_DEPTH}', '--format', 'adj6',\n"
            "      '--seed', '3',\n"
            f"      '--output', {str(Path(work) / 'n.adj6')!r}])\n"
            f"print({_VMHWM_KB})\n")
    edges = int(re.search(r"\|E\|=(\d+)", out).group(1))
    rss = int(out.split()[-1]) * 1024
    table(f"nary peak RSS (3 x 3 seed, depth {NARY_DEPTH}, adj6, "
          "fresh process)",
          ["metric", "value"],
          [["|E|", f"{edges:,}"],
           ["peak RSS", f"{rss / 2**20:,.1f} MiB"],
           ["RSS cap", f"{RSS_CAP_BYTES / 2**20:,.0f} MiB"]])
    assert rss < RSS_CAP_BYTES, (
        f"nary --depth {NARY_DEPTH} peaked at {rss / 2**20:.0f} MiB, over "
        f"the {RSS_CAP_BYTES / 2**20:.0f} MiB cap: its edges are held "
        "whole again")


def test_emit_bench_json(tmp_path, table):
    """Record the perf trajectory: edges/s and MB/s for every format,
    from the WriteResult's own timing fields, into
    ``BENCH_formats.json`` at the repo root."""
    gen = RecursiveVectorGenerator(SCALE, 16, seed=9)
    blocks = list(gen.iter_blocks())
    records = []
    for fmt_name in ("adj6", "csr6", "tsv"):
        _, result = _time_blocks(get_format(fmt_name),
                                 tmp_path / fmt_name, blocks,
                                 gen.num_vertices)
        records.append({
            "scale": SCALE,
            "format": fmt_name,
            "edges_per_second": round(result.edges_per_second),
            "mb_per_second": round(result.bytes_per_second / 2**20, 2),
            "encode_seconds": round(result.encode_seconds, 4),
            "write_seconds": round(result.write_seconds, 4),
        })
    out_path = _REPO_ROOT / "BENCH_formats.json"
    out_path.write_text(json.dumps(records, indent=2) + "\n")
    table(f"BENCH_formats.json (scale {SCALE})",
          ["format", "edges/s", "MB/s"],
          [[r["format"], f"{r['edges_per_second']:,}",
            r["mb_per_second"]] for r in records])
    assert all(r["edges_per_second"] > 0 for r in records)
