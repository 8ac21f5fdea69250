"""TrillionG reproduction: recursive-vector-model synthetic graph generation.

Reimplements "TrillionG: A Trillion-scale Synthetic Graph Generator using a
Recursive Vector Model" (Park & Kim, SIGMOD 2017): the scope-based
generation framework, the recursive vector (AVS) model, NSKG noise, the
ERV rich-graph extension, the baseline generators the paper evaluates
against, the output formats, and a cluster cost model that stands in for
the paper's 10-PC testbed.

Quickstart
----------
>>> from repro import RecursiveVectorGenerator
>>> edges = RecursiveVectorGenerator(scale=12, edge_factor=16,
...                                  seed=42).edges()
>>> edges.shape[1]
2
"""

from .core import (GRAPH500, UNIFORM, IdeaToggles, RecursiveVectorGenerator,
                   ReferenceGenerator, SeedMatrix)
from .errors import (CapacityError, ConfigurationError, FormatError,
                     GenerationError, OutOfMemoryError, SeedMatrixError,
                     TrillionGError)
from .system import TrillionG, TrillionGResult

__version__ = "1.0.0"

__all__ = [
    "GRAPH500", "UNIFORM", "IdeaToggles", "RecursiveVectorGenerator",
    "ReferenceGenerator", "SeedMatrix", "TrillionG", "TrillionGResult",
    "CapacityError", "ConfigurationError", "FormatError", "GenerationError",
    "OutOfMemoryError", "SeedMatrixError", "TrillionGError", "__version__",
]
