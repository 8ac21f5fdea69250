"""External-memory sort engine benchmarks: the partitioned pass vs a
naive merge, and the bounded-RSS proof run.

The one-pass engine (:mod:`repro.util.external_sort`) replaced a
multi-pass k-way merge; these benchmarks keep it honest:

- ``test_streaming_beats_naive`` is the CI perf-smoke gate: the
  splitter-partitioned pass must sustain >= 1.5x the keys/s of a naive
  element-level ``heapq.merge`` + Python dedup over the same scale-18
  spill volume (it lands far above that — the margin is a regression
  tripwire, not a target).
- ``test_spill_exceeds_rss_cap`` is the bounded-memory proof: a fresh
  subprocess spills and sorts more than twice the bytes of a hard
  peak-RSS cap, and its own ``VmHWM`` must show the process never
  grew past the cap while ``extsort.spill_bytes`` shows the volume
  really went through disk — once: no pass rewrites it.
- ``test_wesp_disk_stays_under_rss_cap`` is the same proof end to end
  for the Fig. 11(b) baseline: a fresh ``trilliong baseline --model
  RMAT/p-disk --scale 21`` process, default allocator, must peak below
  a cap that its edge set (8 bytes a key) exceeds twice over.
- ``test_emit_bench_json`` writes ``.bench_out/BENCH_extmem.json``, one
  machine's record of this run; the comparable trajectory is
  ``benchmarks/e2e``.
"""

import heapq
import itertools
import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.telemetry import registry, reset_telemetry
from repro.util.external_sort import collect_chunks, iter_unique_keys
from repro.util.spill import SpillStore

SMOKE_SCALE = 18
EDGE_FACTOR = 16
NUM_RUNS = 16
SEED = 23
#: Runs of a million keys in the proof run: 72 x 8 MB is 2.1x the cap.
PROOF_RUNS = 72

#: Hard peak-RSS cap for the proof run (bytes) — the sort must move
#: twice this volume through disk without ever holding it.
RSS_CAP_BYTES = 256 * 1024 * 1024

#: RMAT/p-disk proof run: at this scale ``8 * |E|`` is about 262 MB,
#: at least twice the cap the whole process must stay under.  It peaks
#: near 48 MiB (``VmHWM``, default allocator): one batch or one bucket
#: beside the imports.  The cap leaves it about 12 MiB of headroom, as
#: the ``generate`` gate in ``bench_formats.py`` does.
WESP_SCALE = 21
WESP_RSS_CAP_BYTES = 60 * 1024 * 1024


def _spill_runs(directory, total_keys, num_runs, seed=SEED):
    """Spill ``num_runs`` sorted runs of random packed keys."""
    rng = np.random.default_rng(seed)
    space = np.int64(1) << np.int64(SMOKE_SCALE + 8)
    store = SpillStore(directory)
    per_run = total_keys // num_runs
    for _ in range(num_runs):
        store.add_run(np.sort(rng.integers(0, space, size=per_run,
                                           dtype=np.int64)))
    return store


def _naive_merge_rate(store):
    """Element-level ``heapq.merge`` + Python dedup: the textbook k-way
    merge.  Returns (unique_keys, seconds)."""
    def read(path):
        with open(path, "rb") as handle:
            while (chunk := np.fromfile(handle, dtype=np.int64,
                                        count=1 << 16)).size:
                yield from chunk.tolist()

    t0 = time.perf_counter()
    unique = 0
    for _key, _ in itertools.groupby(heapq.merge(*map(read, store.runs))):
        unique += 1
    return unique, time.perf_counter() - t0


def _streaming_merge_rate(store):
    """The partitioned pass.  Returns (unique_keys, seconds)."""
    t0 = time.perf_counter()
    unique = 0
    for chunk in store.iter_unique():
        unique += int(chunk.size)
    return unique, time.perf_counter() - t0


def _measure(total_keys):
    with tempfile.TemporaryDirectory(prefix="bench-extmem-") as work:
        store = _spill_runs(Path(work) / "spill", total_keys, NUM_RUNS)
        naive_unique, naive_s = _naive_merge_rate(store)
        stream_unique, stream_s = _streaming_merge_rate(store)
    assert stream_unique == naive_unique
    return {
        "scale": SMOKE_SCALE,
        "total_keys": total_keys,
        "unique_keys": stream_unique,
        "num_runs": NUM_RUNS,
        "naive_seconds": round(naive_s, 4),
        "streaming_seconds": round(stream_s, 4),
        "naive_keys_per_second": round(total_keys / naive_s),
        "streaming_keys_per_second": round(total_keys / stream_s),
        "speedup": round((total_keys / stream_s)
                         / (total_keys / naive_s), 2),
    }


#: A fresh-process proof's own peak RSS in KiB, as a Python expression.
#: ``ru_maxrss`` would not do: a child that ``subprocess`` vforks from
#: this process starts at this process's peak.
_VMHWM_KB = ("int(next(line.split()[1] for line in open('/proc/self/status')"
             " if line.startswith('VmHWM:')))")


def _rss_proof_code(work_dir):
    """Script for the fresh-process bounded-RSS proof run."""
    return (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "from repro.telemetry import registry\n"
        "from repro.util.spill import SpillStore\n"
        f"work = Path({str(work_dir)!r})\n"
        "rng = np.random.default_rng(7)\n"
        "store = SpillStore(work / 'spill')\n"
        "space = np.int64(1) << np.int64(26)\n"
        f"for _ in range({PROOF_RUNS}):\n"
        "    store.add_run(np.sort(rng.integers(0, space,\n"
        "        size=1_000_000, dtype=np.int64)))\n"
        "unique = 0\n"
        "for chunk in store.iter_unique(chunk_items=1 << 20):\n"
        "    unique += int(chunk.size)\n"
        f"rss_kb = {_VMHWM_KB}\n"
        "spilled = registry().counter('extsort.spill_bytes').value\n"
        "json.dump({'unique': unique, 'rss_bytes': rss_kb * 1024,\n"
        "           'spill_bytes': spilled}, sys.stdout)\n"
    )


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter (default allocator, no
    inherited settings) and return its stdout."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, check=True).stdout


def _run_rss_proof():
    with tempfile.TemporaryDirectory(prefix="bench-extmem-rss-") as work:
        return json.loads(_run_fresh(_rss_proof_code(work)))


def _run_wesp_disk_proof():
    """``trilliong baseline --model RMAT/p-disk`` in a fresh process:
    returns (realized edges, peak RSS bytes)."""
    with tempfile.TemporaryDirectory(prefix="bench-extmem-wesp-") as work:
        out = _run_fresh(
            "from repro.cli import main\n"
            "main(['baseline', '--model', 'RMAT/p-disk', '--scale',\n"
            f"      '{WESP_SCALE}', '--format', 'adj6', '--seed', '7',\n"
            f"      '--output', {str(Path(work) / 'g.adj6')!r}])\n"
            f"print({_VMHWM_KB})\n")
    edges = int(re.search(r"\|E\|=(\d+)", out).group(1))
    return edges, int(out.split()[-1]) * 1024


def test_streaming_beats_naive(table):
    """CI perf smoke: the engine must hold >= 1.5x the naive
    element-level merge's throughput at the scale-18 spill volume."""
    total_keys = EDGE_FACTOR << SMOKE_SCALE
    record = _measure(total_keys)
    table(f"Streaming vs naive merge (scale {SMOKE_SCALE}, "
          f"{NUM_RUNS} runs)",
          ["engine", "keys/s", "seconds", "speedup"],
          [["naive heapq", f"{record['naive_keys_per_second']:,}",
            record["naive_seconds"], "1.00x"],
           ["streaming", f"{record['streaming_keys_per_second']:,}",
            record["streaming_seconds"], f"{record['speedup']:.2f}x"]])
    assert record["speedup"] >= 1.5, (
        f"streaming merge only {record['speedup']:.2f}x over the naive "
        f"baseline at scale {SMOKE_SCALE}; the engine regressed")


def test_spill_exceeds_rss_cap(table):
    """Bounded-memory proof: sort a spill volume of twice the RSS cap
    in a fresh process that never exceeds the cap."""
    proof = _run_rss_proof()
    table("Bounded-RSS proof run (fresh process)",
          ["metric", "value"],
          [["peak RSS", f"{proof['rss_bytes'] / 2**20:,.0f} MiB"],
           ["bytes spilled", f"{proof['spill_bytes'] / 2**20:,.0f} MiB"],
           ["RSS cap", f"{RSS_CAP_BYTES / 2**20:,.0f} MiB"],
           ["unique keys", f"{proof['unique']:,}"]])
    assert proof["spill_bytes"] >= 2 * RSS_CAP_BYTES, (
        "proof run did not spill twice the RSS cap; raise PROOF_RUNS")
    assert proof["rss_bytes"] < RSS_CAP_BYTES, (
        f"peak RSS {proof['rss_bytes'] / 2**20:.0f} MiB breached the "
        f"{RSS_CAP_BYTES / 2**20:.0f} MiB cap: the sort is no longer "
        "memory-bounded")


def test_wesp_disk_stays_under_rss_cap(table):
    """Bounded-memory proof for RMAT/p-disk: the edge set is at least
    twice the cap, the process never reaches the cap."""
    edges, rss = _run_wesp_disk_proof()
    table(f"RMAT/p-disk bounded-RSS proof (scale {WESP_SCALE}, "
          "fresh process)",
          ["metric", "value"],
          [["peak RSS", f"{rss / 2**20:,.0f} MiB"],
           ["8 x |E|", f"{8 * edges / 2**20:,.0f} MiB"],
           ["RSS cap", f"{WESP_RSS_CAP_BYTES / 2**20:,.0f} MiB"]])
    assert 8 * edges >= 2 * WESP_RSS_CAP_BYTES, (
        "the edge set is not twice the cap; raise WESP_SCALE")
    assert rss < WESP_RSS_CAP_BYTES, (
        f"RMAT/p-disk peaked at {rss / 2**20:.0f} MiB, over the "
        f"{WESP_RSS_CAP_BYTES / 2**20:.0f} MiB cap: it holds the edge "
        "set instead of streaming it")


def test_streaming_identical_to_in_memory_small_scale():
    """The streamed merge emits byte-for-byte the keys ``np.unique``
    produces over the same spilled batches (small scale)."""
    rng = np.random.default_rng(3)
    batches = [rng.integers(0, 1 << 16, size=5000, dtype=np.int64)
               for _ in range(9)]
    with tempfile.TemporaryDirectory(prefix="bench-extmem-eq-") as work:
        store = SpillStore(Path(work) / "spill")
        for batch in batches:
            store.add_run(np.sort(batch))
        streamed = collect_chunks(store.iter_unique(chunk_items=512))
        direct = collect_chunks(iter_unique_keys(store.runs))
    expected = np.unique(np.concatenate(batches))
    assert streamed.tobytes() == expected.tobytes()
    assert direct.tobytes() == expected.tobytes()


def test_emit_bench_json(table, bench_out):
    """Record the engine's keys/s into ``.bench_out/BENCH_extmem.json``."""
    reset_telemetry()
    record = _measure(EDGE_FACTOR << SMOKE_SCALE)
    reg = registry()
    record["peak_buffered_items"] = int(
        reg.gauge("extsort.peak_buffered_items", mode="max").value)
    proof = _run_rss_proof()
    record["rss_proof"] = {
        "rss_cap_bytes": RSS_CAP_BYTES,
        "peak_rss_bytes": int(proof["rss_bytes"]),
        "spill_bytes": int(proof["spill_bytes"]),
        "unique_keys": int(proof["unique"]),
    }
    (bench_out / "BENCH_extmem.json").write_text(
        json.dumps([record], indent=2) + "\n")
    table(f"BENCH_extmem.json (scale {SMOKE_SCALE})",
          ["engine", "keys/s"],
          [["naive heapq", f"{record['naive_keys_per_second']:,}"],
           ["streaming", f"{record['streaming_keys_per_second']:,}"]])
    assert record["streaming_keys_per_second"] > 0
