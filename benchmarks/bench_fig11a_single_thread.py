"""Figure 11(a): single-threaded generators across scales.

Two parts:

1. **Measured** (scales 12-16, this machine): the times are printed,
   not ordered — the WES baselines here draw from a linear-work path
   sampler (Hübschle-Schneider & Sanders 2019) that the paper's per-edge
   RMAT did not have, and at these scales they finish ahead of
   TrillionG/seq.  What is asserted is what transfers: the Ideas'
   instrumented work ratios, RMAT-disk's memory-for-I/O trade, and the
   O.O.M behaviour under an enforced memory budget.
2. **Paper scale** (20-28, cost model): the published series is printed
   next to the model's prediction; shape assertions (winner, ~10x vs
   FastKronecker at 25, OOM at 26, ~18.5x vs RMAT-disk at 28) are
   enforced in ``tests/cluster``.
"""

import time

import pytest

from benchmarks.conftest import PAPER
from repro.cluster import single_pc_model
from repro.errors import OutOfMemoryError
from repro.models import (FastKroneckerGenerator, RmatDiskGenerator,
                          RmatMemGenerator, TrillionGSeqGenerator)
from repro.telemetry import registry, reset_telemetry

MEASURED_SCALES = (12, 13, 14, 15)
MODELS = [RmatMemGenerator, RmatDiskGenerator, FastKroneckerGenerator,
          TrillionGSeqGenerator]


@pytest.fixture(scope="module")
def measured():
    rows = {}
    for cls in MODELS:
        for scale in MEASURED_SCALES:
            g = cls(scale, 16, seed=7)
            t0 = time.perf_counter()
            g.generate()
            rows[(cls.name, scale)] = time.perf_counter() - t0
    return rows


def test_measured_table(benchmark, measured, table):
    data = benchmark.pedantic(
        lambda: [[name] + [round(measured[(name, s)], 3)
                           for s in MEASURED_SCALES]
                 for name in (c.name for c in MODELS)],
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


def test_algorithmic_work_advantage(benchmark):
    """The three Ideas' measured work reduction (engine-independent).

    Runs the instrumented reference engine twice at the same scale: full
    TrillionG (Ideas on) vs the RMAT-equivalent per-edge process (Ideas
    off) and compares the paper's three cost drivers: recursion steps
    (Idea #2: ~0.24 log|V| vs log|V|), random draws (Idea #3: 1 vs one
    per recursion), RecVec builds (Idea #1: one per scope vs per edge).
    """
    from repro.core.reference import IdeaToggles, ReferenceGenerator

    def run():
        on = ReferenceGenerator(10, 8, seed=5)
        on.edges()
        off = ReferenceGenerator(10, 8, seed=5, ideas=IdeaToggles.all_off())
        off.edges()
        return on.stats, off.stats

    stats_on, stats_off = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats_off.recursion_steps > 2.5 * stats_on.recursion_steps
    assert stats_off.random_draws > 4 * stats_on.random_draws
    # One build per edge attempt vs one per scope: the ratio is the mean
    # scope size plus retries (~10 at this scale, |E|/|V| = 8).
    assert stats_off.recvec_builds > 8 * stats_on.recvec_builds


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
    model = single_pc_model()
    methods = {"RMAT-mem": model.rmat_mem, "RMAT-disk": model.rmat_disk,
               "FastKronecker": model.fast_kronecker,
               "TrillionG/seq": model.trilliong_seq}

    def rows():
        out = []
        for scale in range(20, 29):
            for name, fn in methods.items():
                est = fn(scale)
                published = PAPER["fig11a"][name].get(scale)
                ours = "O.O.M" if est.oom else round(est.elapsed_seconds)
                out.append([scale, name, ours,
                            published if published is not None
                            else "O.O.M"])
        return out

    data = benchmark.pedantic(rows, rounds=1, iterations=1)
    table("Figure 11(a) paper scale: cost model vs published",
          ["scale", "model", "ours (s)", "paper (s)"], data)
    # Every published (non-OOM) cell must be within 2x of the model.
    for scale, name, ours, published in data:
        if isinstance(ours, int) and isinstance(published, int):
            assert 0.5 < ours / published < 2.0, (scale, name)


def test_bench_trilliong_seq_scale15(benchmark):
    g = TrillionGSeqGenerator(15, 16, seed=3)
    edges = benchmark.pedantic(g.generate, rounds=1, iterations=1)
    assert edges.shape[0] > 500000
