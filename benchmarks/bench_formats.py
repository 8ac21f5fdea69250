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
- ``test_emit_bench_json`` writes ``BENCH_formats.json`` at the repo root
  (scale, format, engine, edges/s, MB/s) so later PRs have a perf
  trajectory to compare against.
- ``test_telemetry_overhead_gate`` is the CI gate for the telemetry
  layer: generation+write throughput with telemetry on must stay within
  95% of telemetry off, recorded into ``BENCH_telemetry.json``.
"""

import json
import time
from pathlib import Path

import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.formats import get_format, write_many

SCALE = 13
SMOKE_SCALE = 18

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
            "engine": gen.engine,
            "edges_per_second": round(result.edges_per_second),
            "mb_per_second": round(result.bytes_per_second / 2**20, 2),
            "encode_seconds": round(result.encode_seconds, 4),
            "write_seconds": round(result.write_seconds, 4),
        })
    out_path = _REPO_ROOT / "BENCH_formats.json"
    out_path.write_text(json.dumps(records, indent=2) + "\n")
    table(f"BENCH_formats.json (scale {SCALE}, engine {gen.engine})",
          ["format", "edges/s", "MB/s"],
          [[r["format"], f"{r['edges_per_second']:,}",
            r["mb_per_second"]] for r in records])
    assert all(r["edges_per_second"] > 0 for r in records)


def test_telemetry_overhead_gate(tmp_path, table):
    """CI gate for the observability layer: the full pipeline
    (generation + adj6 write) with telemetry recording must keep >= 95%
    of the telemetry-off throughput.  Best-of-3 per mode, modes
    interleaved so machine noise hits both alike; the result lands in
    ``BENCH_telemetry.json``.
    """
    from repro.telemetry import enable_telemetry, reset_telemetry

    fmt = get_format("adj6")

    def one_run(label):
        gen = RecursiveVectorGenerator(SCALE, 16, seed=9)
        t0 = time.perf_counter()
        result = fmt.write_blocks(tmp_path / f"tel.{label}",
                                  gen.iter_blocks(), gen.num_vertices)
        return result, time.perf_counter() - t0

    best = {"on": float("inf"), "off": float("inf")}
    edges = 0
    try:
        for _ in range(3):
            for mode in ("on", "off"):
                enable_telemetry(mode == "on")
                reset_telemetry()
                result, seconds = one_run(mode)
                best[mode] = min(best[mode], seconds)
                edges = result.num_edges
    finally:
        enable_telemetry(None)
        reset_telemetry()

    on_rate = edges / best["on"]
    off_rate = edges / best["off"]
    ratio = on_rate / off_rate
    records = [{
        "scale": SCALE,
        "format": "adj6",
        "telemetry": mode,
        "edges_per_second": round(edges / best[mode]),
        "seconds": round(best[mode], 4),
    } for mode in ("on", "off")]
    records.append({"scale": SCALE, "format": "adj6",
                    "telemetry": "ratio",
                    "on_over_off": round(ratio, 4)})
    (_REPO_ROOT / "BENCH_telemetry.json").write_text(
        json.dumps(records, indent=2) + "\n")
    table(f"Telemetry overhead (scale {SCALE}, adj6, best of 3)",
          ["telemetry", "seconds", "edges/s"],
          [[m, round(best[m], 4), f"{edges / best[m]:,.0f}"]
           for m in ("on", "off")] + [["on/off", f"{ratio:.3f}", ""]])
    assert ratio >= 0.95, (
        f"telemetry-on throughput only {ratio:.3f} of telemetry-off; "
        "the recording path regressed")

