"""Figure 11(a): single-threaded generators across scales.

Two parts:

1. **Measured** (scales 12-16, this machine): the times are printed,
   not ordered — the WES baselines here draw from a linear-work path
   sampler (Hübschle-Schneider & Sanders 2019) that the paper's per-edge
   RMAT did not have, and at these scales they finish ahead of
   TrillionG/seq.  What is asserted is what transfers: RMAT-disk's
   memory-for-I/O trade and the O.O.M behaviour under an enforced memory
   budget (the Ideas' instrumented work ratios are Figure 13's rows,
   asserted in ``bench_fig13_ablation.py``).
2. **Paper scale** (20-28, cost model): the published series is printed
   next to the model's prediction; shape assertions (winner, ~10x vs
   FastKronecker at 25, OOM at 26, ~18.5x vs RMAT-disk at 28) are
   enforced in ``tests/cluster``.
"""

import time

from repro.errors import OutOfMemoryError
from repro.experiments import figure11a_measured_rows, figure11a_rows
from repro.models import (FastKroneckerGenerator, RmatDiskGenerator,
                          RmatMemGenerator, TrillionGSeqGenerator)
from repro.telemetry import registry, reset_telemetry

MEASURED_SCALES = (12, 13, 14, 15)


def test_measured_table(benchmark, table):
    data = benchmark.pedantic(
        lambda: [list(row.values())
                 for row in figure11a_measured_rows(MEASURED_SCALES)],
        rounds=1, iterations=1)
    table("Figure 11(a) measured seconds (this machine, scales 12-15)",
          ["model"] + [f"scale{s}" for s in MEASURED_SCALES], data)


def test_disk_rmat_trades_memory_for_io_measured(benchmark, table):
    """The RMAT-disk bar at reduced scale: its times beside RMAT-mem's
    and TrillionG/seq's, and the trade Section 2.1 describes, as counts.

    The wall-clock *ordering* of Figure 11(a) does not transfer to this
    implementation (module docstring); it is asserted at paper scale
    against the calibrated cost model in ``test_paper_scale_table`` and
    ``tests/cluster``.  Nor is RMAT-disk slower than RMAT-mem here:
    RMAT-mem tops up to exactly |E| and re-sorts its whole key set every
    round, RMAT-disk emits what survives of |E| (1 + epsilon).  What the
    disk variant does pay is that every surviving edge crosses the disk,
    for a working set of one batch instead of the edge set.
    """
    def run():
        seconds, reports = {}, {}
        for cls in (TrillionGSeqGenerator, RmatMemGenerator,
                    RmatDiskGenerator):
            reset_telemetry()
            g = cls(16, 16, seed=7)
            t0 = time.perf_counter()
            g.generate()
            seconds[cls.name] = time.perf_counter() - t0
            reports[cls.name] = g.report
        # RMAT-disk ran last: the registry holds its spill volume.
        spilled = registry().counter("extsort.spill_bytes").value
        return seconds, reports, spilled

    seconds, reports, spilled = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    table("Figure 11(a) at scale 16 (this machine)",
          ["model", "seconds", "edges", "working set (MiB)"],
          [[name, round(seconds[name], 3), report.realized_edges,
            round(report.peak_memory_bytes / 2**20, 1)]
           for name, report in reports.items()])
    disk, mem = reports["RMAT-disk"], reports["RMAT-mem"]
    assert spilled >= 8 * disk.realized_edges
    assert 4 * disk.peak_memory_bytes <= mem.peak_memory_bytes


def test_oom_reproduction(benchmark):
    """With the same budget, RMAT-mem and FastKronecker die while
    TrillionG/seq and RMAT-disk complete — the Figure 11(a) O.O.M bars."""

    def run():
        budget = 256 * 1024     # scaled-down '32 GB'
        outcomes = {}
        for cls in (RmatMemGenerator, FastKroneckerGenerator):
            try:
                cls(13, 16, seed=1, memory_budget=budget).generate()
                outcomes[cls.name] = "ok"
            except OutOfMemoryError:
                outcomes[cls.name] = "O.O.M"
        for cls in (RmatDiskGenerator, TrillionGSeqGenerator):
            kwargs = {"batch_edges": 4096} if cls is RmatDiskGenerator \
                else {"block_size": 128}
            cls(13, 16, seed=1, memory_budget=budget, **kwargs).generate()
            outcomes[cls.name] = "ok"
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcomes["RMAT-mem"] == "O.O.M"
    assert outcomes["FastKronecker"] == "O.O.M"
    assert outcomes["RMAT-disk"] == "ok"
    assert outcomes["TrillionG/seq"] == "ok"


def test_paper_scale_table(benchmark, table):
    """Cost-model predictions beside the published Figure 11(a) values."""
    rows = benchmark.pedantic(figure11a_rows, rounds=1, iterations=1)
    table("Figure 11(a) paper scale: cost model vs published",
          ["scale", "model", "ours (s)", "paper (s)"],
          [[r["scale"], r["model"], r["elapsed"], r["paper"]]
           for r in rows])
    # Every published (non-OOM) cell must be within 2x of the model.
    for r in rows:
        if r["elapsed"] != "O.O.M" and r["paper"] != "O.O.M":
            assert 0.5 < r["elapsed"] / r["paper"] < 2.0, r


def test_bench_trilliong_seq_scale15(benchmark):
    g = TrillionGSeqGenerator(15, 16, seed=3)
    edges = benchmark.pedantic(g.generate, rounds=1, iterations=1)
    assert edges.shape[0] > 500000
