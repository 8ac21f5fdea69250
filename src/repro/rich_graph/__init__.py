"""Rich graph generation: the ERV model and gMark-style schemas (Sec. 6)."""

from .config import (EdgeRule, GraphConfig, NodeType, Predicate,
                     bibliographical_config)
from .distributions import (Empirical, Gaussian, Uniform, Zipfian,
                            parse_distribution,
                            seed_for_in_slope, seed_for_out_slope)
from .erv import ErvGenerator
from .generator import RichGraphGenerator, TypedEdges
from .schemas import (BUILTIN_SCHEMAS, builtin_schema, snb_config,
                      sp2bench_config, watdiv_config)
from .schema_io import (config_from_dict, config_to_dict, load_config,
                        save_config)

__all__ = [
    "EdgeRule", "GraphConfig", "NodeType", "Predicate",
    "bibliographical_config", "Empirical", "Gaussian", "Uniform", "Zipfian",
    "parse_distribution", "seed_for_in_slope", "seed_for_out_slope",
    "ErvGenerator", "RichGraphGenerator", "TypedEdges",
    "config_from_dict", "config_to_dict", "load_config", "save_config",
    "BUILTIN_SCHEMAS", "builtin_schema", "snb_config", "sp2bench_config",
    "watdiv_config",
]
