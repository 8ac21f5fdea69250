"""The paper's evaluation, one rows function per figure or table.

Each function computes one table or figure (Tables 2-3, Figs. 8-14) and
returns its rows as dicts: ``trilliong experiment --id fig9`` prints
them, and each ``benchmarks/bench_fig*.py`` / ``bench_table*.py`` file
asserts the paper's shape claims on the rows of its function, called
with the bench's own scale and seeds.

Measured experiments run at reduced scales on the local machine;
paper-scale experiments come from the calibrated cost model
(:mod:`repro.cluster`), each row beside the published value
(:data:`PAPER`).  Each function documents which.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .analysis import (degree_histogram, fit_gaussian,
                       fit_kronecker_class_slope, in_degrees,
                       loglog_plot_distance, oscillation_score,
                       out_degrees)
from .cluster import (PAPER_CLUSTER, PAPER_CLUSTER_IB, SINGLE_PC,
                      CostEstimate, CostModel)
from .core.generator import RecursiveVectorGenerator
from .core.reference import IdeaToggles, ReferenceGenerator
from .core.seed import UNIFORM
from .models import (FastKroneckerGenerator, Graph500Generator,
                     RmatDiskGenerator, RmatMemGenerator, TegGenerator,
                     TrillionGSeqGenerator)
from .rich_graph import (RichGraphGenerator, bibliographical_config,
                         seed_for_in_slope, seed_for_out_slope)

__all__ = ["EXPERIMENTS", "PAPER", "run_experiment",
           "available_experiments", "table2_rows", "table3_rows",
           "figure8_rows", "figure9_rows", "figure10_rows",
           "figure11a_measured_rows", "figure11a_rows", "figure11b_rows",
           "figure12_rows", "figure13_rows", "figure14_measured_rows",
           "figure14_rows"]

Rows = list[dict]

#: Fig. 14 draws one TrillionG curve: it uses no network while generating.
_FIG14_TRILLIONG = {25: 11, 26: 16, 27: 27, 28: 44, 29: 72, 30: 140}

#: Published values transcribed from the paper: ``PAPER[figure][model]``
#: maps a scale to seconds (a scale a model has no bar for is O.O.M);
#: ``fig12_mem_MB`` is Fig. 12(b)'s peak memory and ``fig13`` maps the
#: ``(idea1, idea2, idea3)`` toggles to seconds at scale 27.
PAPER = {
    "fig11a": {
        "RMAT-mem": {20: 56, 21: 115, 22: 233, 23: 566, 24: 1252,
                     25: 2719},
        "RMAT-disk": {20: 89, 21: 181, 22: 377, 23: 759, 24: 1746,
                      25: 3744, 26: 7657, 27: 15637, 28: 32432},
        "FastKronecker": {20: 33, 21: 75, 22: 175, 23: 401, 24: 897,
                          25: 2040},
        "TrillionG/seq": {20: 8, 21: 15, 22: 27, 23: 51, 24: 100,
                          25: 202, 26: 408, 27: 853, 28: 1747},
    },
    "fig11b": {
        "RMAT/p-mem": {24: 120, 25: 206, 26: 451, 27: 861, 28: 1705},
        "RMAT/p-disk": {24: 169, 25: 248, 26: 445, 27: 939, 28: 1619,
                        29: 4004, 30: 9670, 31: 21617},
        "TrillionG (TSV)": {24: 8, 25: 10, 26: 15, 27: 24, 28: 45,
                            29: 97, 30: 189, 31: 411},
        "TrillionG (ADJ6)": {24: 7, 25: 9, 26: 12, 27: 19, 28: 35,
                             29: 61, 30: 115, 31: 220},
    },
    "fig12": {
        "TrillionG (ADJ6)": {33: 843, 34: 1639, 35: 3318, 36: 6675,
                             37: 13199, 38: 27567},
    },
    "fig12_mem_MB": {33: 122, 34: 186, 35: 283, 36: 430, 37: 653,
                     38: 992},
    "fig13": {
        (False, False, False): 159, (False, False, True): 144,
        (False, True, False): 141, (False, True, True): 129,
        (True, False, False): 47, (True, False, True): 33,
        (True, True, False): 30, (True, True, True): 19,
    },
    "fig14": {
        "TrillionG-1G": _FIG14_TRILLIONG,
        "TrillionG-IB": _FIG14_TRILLIONG,
        "Graph500-1G": {25: 680, 26: 1100, 27: 2465, 28: 4835,
                        29: 10178},
        "Graph500-IB": {25: 12, 26: 27, 27: 66, 28: 172, 29: 877},
    },
}


def table2_rows(scale: int = 12) -> Rows:
    """Table 2 (measured): search-structure sizes at ``scale``."""
    from .core.probability import brute_force_cdf
    from .core.recvec import build_recvec
    from .core.seed import GRAPH500
    cdf = brute_force_cdf(GRAPH500, 5, scale)
    recvec = build_recvec(GRAPH500, 5, scale)
    return [
        {"structure": "CDF vector", "search": "linear",
         "time": "O(|V|)", "entries": int(cdf.size),
         "bytes": int(cdf.nbytes)},
        {"structure": "CDF vector", "search": "binary",
         "time": "O(log |V|)", "entries": int(cdf.size),
         "bytes": int(cdf.nbytes)},
        {"structure": "RecVec", "search": "binary",
         "time": "O(log |V|)", "entries": int(recvec.size),
         "bytes": int(recvec.nbytes)},
    ]


def table3_rows(scale: int = 13, seeds: tuple = (1, 1, 1)) -> Rows:
    """Table 3 (measured): predicted vs measured distribution control.

    ``seeds`` are the generator seeds of the ``Kout`` rows, the ``Kin``
    rows and the uniform row.  ``measured`` is the Zipf class slope of
    the out- or in-degrees, or the uniform seed's mean degree.
    """
    out_seed, in_seed, uniform_seed = seeds
    cases = ([(f"Kout zipf({s})", s, seed_for_out_slope(s), out_seed,
               out_degrees) for s in (-1.0, -1.662, -2.2)]
             + [(f"Kin zipf({s})", s, seed_for_in_slope(s), in_seed,
                 in_degrees) for s in (-1.2, -1.662)]
             + [("uniform (Gaussian)", 16.0, UNIFORM, uniform_seed,
                 out_degrees)])
    rows = []
    for label, predicted, matrix, seed, degrees in cases:
        g = RecursiveVectorGenerator(scale, 16, matrix, seed=seed)
        degs = degrees(g.edges(), g.num_vertices)
        fit = fit_gaussian(degs)
        measured = (round(fit.mean, 2) if matrix is UNIFORM
                    else round(fit_kronecker_class_slope(degs), 3))
        rows.append({"seed": label, "predicted": predicted,
                     "measured": measured,
                     "excess_kurtosis": round(fit.excess_kurtosis, 3)})
    return rows


def figure8_rows(scale: int = 14, edge_factor: int = 16) -> Rows:
    """Figure 8 (measured): per-generator degree-plot summaries."""
    n = 1 << scale
    series = {}
    for cls, seed in ((RmatMemGenerator, 10), (FastKroneckerGenerator, 20),
                      (TrillionGSeqGenerator, 30), (TegGenerator, 40)):
        g = cls(scale, edge_factor, seed=seed)
        series[cls.name] = out_degrees(g.generate(), n)
    reference = series["RMAT-mem"]
    rows = []
    for name, degs in series.items():
        dist, common = loglog_plot_distance(reference, degs)
        rows.append({"generator": name, "edges": int(degs.sum()),
                     "d_max": int(degs.max()),
                     "plot_distance_vs_rmat": round(dist, 3),
                     "comparable_degrees": common,
                     "distinct_degrees": degree_histogram(degs).degrees.size,
                     "class_slope": round(fit_kronecker_class_slope(degs),
                                          3)})
    return rows


def figure9_rows(scale: int = 15, seeds: tuple = (1, 2, 3)) -> Rows:
    """Figure 9 (measured): oscillation vs noise, mean over seeds."""
    rows = []
    for noise in (0.0, 0.05, 0.1):
        scores = []
        for seed in seeds:
            g = RecursiveVectorGenerator(scale, 16, seed=seed, noise=noise)
            scores.append(oscillation_score(
                out_degrees(g.edges(), g.num_vertices)))
        rows.append({"noise": noise,
                     "oscillation": round(float(np.mean(scores)), 4)})
    return rows


def figure10_rows(num_vertices: int = 1 << 14, seed: int = 21) -> Rows:
    """Figure 10 (measured): the author rectangle's two marginals."""
    config = bibliographical_config(num_vertices)
    author = RichGraphGenerator(config, seed=seed).generate_rule(0)
    src_lo, src_hi = config.vertex_range("researcher")
    dst_lo, dst_hi = config.vertex_range("paper")
    out_deg = np.bincount(author.edges[:, 0] - src_lo,
                          minlength=src_hi - src_lo)
    in_deg = np.bincount(author.edges[:, 1] - dst_lo,
                         minlength=dst_hi - dst_lo)
    out_fit, in_fit = fit_gaussian(out_deg), fit_gaussian(in_deg)
    out_slope = fit_kronecker_class_slope(out_deg)
    in_slope = fit_kronecker_class_slope(in_deg)
    # ``target`` is the requested slope, or the in-side's mean degree.
    return [
        {"side": "out (researcher)", "requested": "zipfian(-1.662)",
         "measured": f"slope {out_slope:.3f}",
         "target": author.rule.out_distribution.slope,
         "slope": round(out_slope, 3), "mean": round(out_fit.mean, 3),
         "excess_kurtosis": round(out_fit.excess_kurtosis, 3)},
        {"side": "in (paper)", "requested": "gaussian",
         "measured": f"mean {in_fit.mean:.2f} std {in_fit.std:.2f} "
                     f"kurtosis {in_fit.excess_kurtosis:.2f}",
         "target": round(config.rule_edge_budget(author.rule)
                         / in_deg.size, 3),
         "slope": round(in_slope, 3), "mean": round(in_fit.mean, 3),
         "excess_kurtosis": round(in_fit.excess_kurtosis, 3)},
    ]


def figure11a_measured_rows(scales: tuple = (12, 13, 14)) -> Rows:
    """Figure 11(a) (measured, reduced scales): wall seconds."""
    rows = []
    for cls in (RmatMemGenerator, RmatDiskGenerator,
                FastKroneckerGenerator, TrillionGSeqGenerator):
        row: dict = {"model": cls.name}
        for scale in scales:
            g = cls(scale, 16, seed=7)
            t0 = time.perf_counter()
            g.generate()
            row[f"scale{scale}"] = round(time.perf_counter() - t0, 3)
        rows.append(row)
    return rows


def figure13_rows(scale: int = 11, edge_factor: int = 8) -> Rows:
    """Figure 13 (measured): idea ablation CPU times and work counters.

    ``cpu_seconds`` is the process's CPU time, so a neighbour on a shared
    CPU does not stretch one configuration's reading.
    """
    rows = []
    for i1 in (False, True):
        for i2 in (False, True):
            for i3 in (False, True):
                g = ReferenceGenerator(scale, edge_factor, seed=13,
                                       ideas=IdeaToggles(i1, i2, i3))
                t0 = time.process_time()
                g.edges()
                rows.append({
                    "idea1": i1, "idea2": i2, "idea3": i3,
                    "cpu_seconds": round(time.process_time() - t0, 3),
                    "recursions": g.stats.recursion_steps,
                    "draws": g.stats.random_draws,
                    "recvec_builds": g.stats.recvec_builds,
                })
    return rows


def figure14_measured_rows(scale: int = 13) -> Rows:
    """Figure 14 (measured): the Graph500-model pipeline's phases."""
    g = Graph500Generator(scale, 16, seed=2)
    g.generate()
    rows = [{"phase": k, "seconds": round(v, 4)}
            for k, v in g.report.phase_seconds.items()]
    rows.append({"phase": "construction_ratio",
                 "seconds": round(g.construction_overhead_ratio(), 4)})
    return rows


def _cost_row(model: str, est: CostEstimate, paper: dict) -> dict:
    """One cost-model cell beside the published ``paper[model]`` value
    ("O.O.M" where the paper has no bar at that scale)."""
    return {"model": model, "scale": est.scale,
            "elapsed": "O.O.M" if est.oom else round(est.elapsed_seconds),
            "peak_mem_MB": round(est.peak_memory_bytes / 2**20),
            "construction_ratio": round(CostModel.construction_ratio(est),
                                        3),
            "paper": paper[model].get(est.scale, "O.O.M")}


def figure11a_rows(scales: range = range(20, 29)) -> Rows:
    """Figure 11(a) (cost model, paper scales): RMAT-mem/disk,
    FastKronecker and TrillionG/seq on one PC."""
    m = CostModel(SINGLE_PC)
    return [_cost_row(est.model, est, PAPER["fig11a"])
            for scale in scales
            for est in (m.rmat_mem(scale), m.rmat_disk(scale),
                        m.fast_kronecker(scale), m.trilliong_seq(scale))]


def figure11b_rows(scales: range = range(24, 32)) -> Rows:
    """Figure 11(b) (cost model, paper scales): RMAT/p-mem/disk vs
    TrillionG writing TSV and ADJ6 on the 10-PC cluster."""
    m = CostModel(PAPER_CLUSTER)
    return [_cost_row(est.model, est, PAPER["fig11b"])
            for scale in scales
            for est in (m.wesp_mem(scale), m.wesp_disk(scale),
                        m.trilliong(scale, "tsv"),
                        m.trilliong(scale, "adj6"))]


def figure12_rows(scales: range = range(33, 39)) -> Rows:
    """Figure 12 (cost model, paper scales): TrillionG's elapsed time and
    peak memory at scales 33-38, beside both published series."""
    m = CostModel(PAPER_CLUSTER)
    return [dict(_cost_row(est.model, est, PAPER["fig12"]),
                 paper_mem_MB=PAPER["fig12_mem_MB"][est.scale])
            for est in (m.trilliong(scale, "adj6") for scale in scales)]


def figure14_rows(scales: range = range(25, 31)) -> Rows:
    """Figure 14 (cost model, paper scales): TrillionG vs Graph500 on
    1GbE and InfiniBand.

    TrillionG uses no network during generation, so its 1GbE and
    InfiniBand rows coincide (as the paper notes).
    """
    m_1g = CostModel(PAPER_CLUSTER)
    m_ib = CostModel(PAPER_CLUSTER_IB)
    rows = []
    for scale in scales:
        tg = m_1g.trilliong_nskg_csr(scale)
        for model, est in (("TrillionG-1G", tg), ("TrillionG-IB", tg),
                           ("Graph500-1G", m_1g.graph500(scale)),
                           ("Graph500-IB", m_ib.graph500(scale))):
            rows.append(_cost_row(model, est, PAPER["fig14"]))
    return rows


#: Registry: experiment id -> (description, callable).
EXPERIMENTS: dict[str, tuple[str, Callable[[], Rows]]] = {
    "table2": ("CDF vector vs RecVec (measured)", table2_rows),
    "table3": ("seed params vs distributions (measured)", table3_rows),
    "fig8": ("degree plots of four generators (measured)", figure8_rows),
    "fig9": ("NSKG oscillation vs noise (measured)", figure9_rows),
    "fig10": ("ERV rich-graph marginals (measured)", figure10_rows),
    "fig11a-measured": ("single-thread wall times (measured, reduced "
                        "scales)", figure11a_measured_rows),
    "fig11a": ("single-thread comparison (cost model, paper scales)",
               figure11a_rows),
    "fig11b": ("distributed comparison (cost model, paper scales)",
               figure11b_rows),
    "fig12": ("TrillionG scalability (cost model, paper scales)",
              figure12_rows),
    "fig13": ("idea ablation (measured)", figure13_rows),
    "fig14-measured": ("Graph500 pipeline phases (measured)",
                       figure14_measured_rows),
    "fig14": ("TrillionG vs Graph500 (cost model, paper scales)",
              figure14_rows),
}


def available_experiments() -> list[str]:
    return sorted(EXPERIMENTS)


def run_experiment(experiment_id: str) -> Rows:
    """Run one experiment by id and return its rows."""
    try:
        _, fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{available_experiments()}") from None
    return fn()
