"""Graph property analysis: degree distributions, fitting, comparison."""

from .compare import (KsResult, chi2_two_sample_statistic,
                      histograms_similar, ks_two_sample,
                      loglog_plot_distance)
from .degree import (DegreeHistogram, ccdf, degree_histogram, in_degrees,
                     log_binned_histogram, out_degrees)
from .fitting import (GaussianFit, fit_gaussian, fit_kronecker_class_slope,
                      fit_zipf_slope, oscillation_score)
from .oracle import ScopeLawReport, check_scope_law
from .stats import GraphStats, graph_stats
from .theory import (binomial_pmf, expected_degree_ccdf,
                     expected_degree_distribution)
from .structure import (clustering_coefficient_sampled, effective_diameter,
                        pagerank, reciprocity, symmetrize, triangle_count)
from .traversal import (bfs_levels, bfs_parents, build_csr,
                        reachable_count, validate_bfs_parents)

__all__ = [
    "KsResult", "chi2_two_sample_statistic", "histograms_similar",
    "loglog_plot_distance",
    "ks_two_sample", "DegreeHistogram", "ccdf", "degree_histogram",
    "in_degrees", "log_binned_histogram", "out_degrees", "GaussianFit",
    "fit_gaussian", "fit_zipf_slope", "fit_kronecker_class_slope",
    "oscillation_score", "ScopeLawReport", "check_scope_law", "GraphStats",
    "graph_stats", "symmetrize",
    "bfs_levels", "bfs_parents", "build_csr", "reachable_count",
    "clustering_coefficient_sampled", "effective_diameter", "pagerank",
    "reciprocity",
    "triangle_count", "binomial_pmf", "expected_degree_ccdf",
    "expected_degree_distribution",
    "validate_bfs_parents",
]
