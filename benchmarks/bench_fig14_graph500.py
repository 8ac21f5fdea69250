"""Figure 14 (Appendix D): TrillionG vs the Graph500 benchmark.

Measured part: the Graph500-model pipeline (NSKG + scramble + CSR
construction) on this machine, showing its construction phases, versus
TrillionG writing CSR6 in a streaming pass.  Paper-scale part: the cost
model against the published 1GbE/InfiniBand curves and the Figure 14(b)
construction-overhead ratios; the O.O.M wall past scale 30, the network
insensitivity and the ratios' bounds (TrillionG 6-7%, Graph500 >90% on
1GbE) are asserted in ``tests/cluster/test_costmodel.py``.
"""

import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.experiments import figure14_measured_rows, figure14_rows
from repro.formats import get_format

SCALE = 14
#: Figure 14's three curves (TrillionG's 1GbE and InfiniBand rows
#: coincide) at the cost model's paper scales.
MODELS = ("TrillionG-1G", "Graph500-1G", "Graph500-IB")
SCALES = range(25, 31)


def test_measured_graph500_pipeline(benchmark, table):
    rows = benchmark.pedantic(lambda: figure14_measured_rows(SCALE),
                              rounds=1, iterations=1)
    table("Figure 14 measured: Graph500-model phases (scale 14)",
          ["phase", "seconds"], [[r["phase"], r["seconds"]] for r in rows])
    assert {"generate", "scramble", "construct"} <= {r["phase"]
                                                     for r in rows}


def test_measured_trilliong_csr_write(benchmark, tmp_path):
    """TrillionG emits CSR6 in one streaming pass — the adjacency comes
    out sorted, so 'construction' is just the write."""
    g = RecursiveVectorGenerator(SCALE, 16, seed=3, noise=0.1)
    fmt = get_format("csr6")

    def run():
        return fmt.write_blocks(tmp_path / "g.csr6", g.iter_blocks(),
                                g.num_vertices)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.num_edges > 200000
    indptr, indices = fmt.read_csr(tmp_path / "g.csr6")
    assert indptr[-1] == result.num_edges


@pytest.fixture(scope="module")
def paper_scale():
    """:func:`repro.experiments.figure14_rows` by ``(model, scale)``."""
    return {(r["model"], r["scale"]): r for r in figure14_rows(SCALES)}


def test_paper_scale_table(benchmark, paper_scale, table):
    def rows():
        return [[scale] + [paper_scale[(model, scale)][column]
                           for model in MODELS
                           for column in ("elapsed", "paper")]
                for scale in SCALES]

    data = benchmark.pedantic(rows, rounds=1, iterations=1)
    table("Figure 14(a) paper scale: cost model vs published",
          ["scale", "TG ours", "TG paper", "G500-1G ours",
           "G500-1G paper", "G500-IB ours", "G500-IB paper"], data)
    for scale in SCALES:
        tg = paper_scale[("TrillionG-1G", scale)]
        if tg["elapsed"] != "O.O.M" and tg["paper"] != "O.O.M":
            assert 0.4 < tg["elapsed"] / tg["paper"] < 2.0, scale


def test_construction_ratio_table(benchmark, paper_scale, table):
    """Figure 14(b): ratio of construction to total time (its bounds are
    asserted in ``tests/cluster/test_costmodel.py``)."""
    ratio = {key: f"{r['construction_ratio']:.0%}"
             for key, r in paper_scale.items()}
    data = benchmark.pedantic(
        lambda: [[scale] + [ratio[(model, scale)] for model in MODELS]
                 for scale in SCALES[:-1]], rounds=1, iterations=1)
    table("Figure 14(b): construction overhead ratio",
          ["scale", "TrillionG", "Graph500-1G", "Graph500-IB"], data)
