"""A grid block is generated in runs of at most ``_BLOCK_EDGES`` edges.

The budget is patched small here, so that a scale-13 hub block is cut
into many runs and one of its scopes alone is larger than the budget:
every path that writes a graph must still write the same bytes, and
the working set of a sweep must stay a constant times the budget.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro import RecursiveVectorGenerator, TrillionG
from repro.cli import main
from repro.core import generator
from repro.core.generator import _run_cuts
from repro.dist.checkpoint import CheckpointedRun
from repro.dist.runner import LocalCluster
from repro.formats import get_format
from tests.faultinject import needs_fork, stop_after

BUDGET = 3000
BLOCK = 1024


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(generator, "_BLOCK_EDGES", BUDGET)


def make(**kwargs):
    return RecursiveVectorGenerator(13, 16, seed=5, block_size=BLOCK,
                                    **kwargs)


def test_hub_block_is_cut_into_runs_within_the_budget(small_budget):
    g = make()
    degrees = g.block_degrees(0)
    assert degrees.max() > BUDGET          # the hub scope: a run alone
    assert len(_run_cuts(degrees)) - 1 >= 3
    runs = list(g.iter_blocks(0, BLOCK))
    assert len(runs) == len(_run_cuts(degrees)) - 1
    for run in runs:
        assert run.num_edges <= BUDGET or run.sources.size == 1
    assert np.concatenate([run.degrees for run in runs]).tolist() == \
        degrees.tolist()


def test_cuts_are_greedy_prefixes(monkeypatch):
    degrees = np.array([5, 0, 7, 30, 0, 2, 2, 0, 9, 0])
    assert _run_cuts(degrees) == [0, 10]
    monkeypatch.setattr(generator, "_BLOCK_EDGES", 10)
    # The scope of 30 is a run alone, with the empty scope after it.
    assert _run_cuts(degrees) == [0, 2, 3, 5, 8, 10]
    assert _run_cuts(np.zeros(4, dtype=np.int64)) == [0, 4]


@pytest.mark.parametrize("fmt", ["adj6", "csr6", "tsv"])
def test_generate_block_per_grid_index_writes_the_sweep_bytes(
        tmp_path, small_budget, fmt):
    writer = get_format(fmt)
    swept, stepped = make(), make()
    writer.write_blocks(tmp_path / "swept", swept.iter_blocks(),
                        swept.num_vertices)
    blocks = -(-stepped.num_vertices // BLOCK)
    writer.write_blocks(tmp_path / "stepped",
                        (stepped.generate_block(i) for i in range(blocks)),
                        stepped.num_vertices)
    assert (tmp_path / "stepped").read_bytes() == \
        (tmp_path / "swept").read_bytes()


def test_a_range_through_a_run_is_the_slice_of_the_sweep(small_budget):
    cuts = _run_cuts(make().block_degrees(0))
    # Into the first run of three sources or more, out of block 2.
    first = next(lo for lo, hi in zip(cuts, cuts[1:]) if hi - lo >= 3)
    start, stop = first + 1, 2 * BLOCK + 300
    assert 300 not in _run_cuts(make().block_degrees(2))
    full = make().edges()
    inside = (full[:, 0] >= start) & (full[:, 0] < stop)
    np.testing.assert_array_equal(make().edges(start, stop), full[inside])


@needs_fork
def test_parts_concatenate_to_the_sequential_bytes(tmp_path, small_budget):
    gen = make()
    sequential = get_format("adj6").write_blocks(
        tmp_path / "seq.adj6", gen.iter_blocks(), gen.num_vertices)
    parts = LocalCluster(num_workers=3).generate_to_files(
        make(), tmp_path / "par", processes=2)
    assert len(parts.paths) > 1
    assert b"".join(p.read_bytes() for p in parts.paths) == \
        sequential.path.read_bytes()


def test_resume_reproduces_the_bytes(tmp_path, small_budget):
    argv = ["generate", "--scale", "13", "--seed", "5"]
    sequential, out = tmp_path / "seq.adj6", tmp_path / "out"
    assert main(argv + ["--output", str(sequential)]) == 0
    # A run killed after its first chunk ...
    first = CheckpointedRun(TrillionG(13, seed=5).generator, out,
                            blocks_per_chunk=1)
    stop_after(first, 1)
    assert len(first.state.completed) == 1
    # ... is finished by the CLI.
    assert main(argv + ["--output", str(out), "--resume",
                        "--blocks-per-chunk", "1"]) == 0
    chunks = sorted(out.glob("chunk-*.adj6"))
    assert len(chunks) == 2
    assert b"".join(p.read_bytes() for p in chunks) == \
        sequential.read_bytes()


def test_runs_are_keyed_by_block_and_run(tmp_path, small_budget):
    """Golden bytes of a graph whose blocks are cut into runs: a run
    drawing from its grid block's stream alone changes them."""
    g = RecursiveVectorGenerator(10, 16, seed=42)
    assert len(_run_cuts(g.block_degrees(0))) - 1 >= 5
    path = tmp_path / "g.adj6"
    get_format("adj6").write_blocks(path, g.iter_blocks(), g.num_vertices)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "4080067ee47b98b7e1827048d6561adac847f4a8b363201fbcf60b4e3c70c20d")


@pytest.mark.parametrize("scale", [16, 20])
def test_working_set_is_a_constant_times_the_budget(scale):
    """Peak traced bytes of a whole sweep, one run held at a time:
    ≈ 36 B per budget edge at both scales (the hub block alone holds
    ≈ 0.35 M edges at scale 16 and ≈ 1.9 M at 20)."""
    g = RecursiveVectorGenerator(scale, 16, seed=7)
    tracemalloc.start()
    try:
        for run in g.iter_blocks():
            del run
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.stats.max_scope_size < generator._BLOCK_EDGES
    assert peak < 48 * generator._BLOCK_EDGES, peak
