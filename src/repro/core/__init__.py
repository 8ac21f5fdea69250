"""Core of the recursive vector model (paper Sections 4-5 and Appendix C)."""

from .generator import (AdjacencyBlock, GenerationStats, Recipe,
                        RecursiveVectorGenerator)
from .noise import NoisySeedStack, max_noise, noisy_seed_matrices
from .probability import (column_probability, edge_probability,
                          row_probabilities, row_probability)
from .process import EdgeProcess, NoisyProcess, PlainProcess, make_process
from .recvec import (build_recvec, build_recvec_decimal, build_recvecs,
                     determine_edge, determine_edge_cdf, determine_edges,
                     scale_symmetry_ratio, sigma_from_recvec)
from .reference import IdeaToggles, ReferenceGenerator, ReferenceStats
from .rng import derive_seed, spawn_streams, stream
from .scope import sample_scope_sizes
from .seed import GRAPH500, UNIFORM, SeedMatrix

__all__ = [
    "AdjacencyBlock", "GenerationStats", "IdeaToggles", "Recipe",
    "RecursiveVectorGenerator", "ReferenceGenerator", "ReferenceStats",
    "NoisySeedStack", "max_noise",
    "noisy_seed_matrices", "column_probability", "edge_probability",
    "row_probabilities", "row_probability", "EdgeProcess", "NoisyProcess",
    "PlainProcess", "make_process", "build_recvec", "build_recvec_decimal",
    "build_recvecs", "determine_edge", "determine_edge_cdf",
    "determine_edges", "scale_symmetry_ratio",
    "sigma_from_recvec", "derive_seed", "spawn_streams", "stream",
    "sample_scope_sizes", "GRAPH500", "UNIFORM", "SeedMatrix",
]
