"""The flow-sensitive half of ``reprolint``.

Layers, bottom to top:

- :mod:`~repro.devtools.engine.cfg` — intraprocedural control-flow
  graphs (``if``/``for``/``while``/``try``/``finally``/``with``/
  ``return``, with ``finally`` duplication for abrupt exits and
  explicit exceptional edges);
- :mod:`~repro.devtools.engine.dataflow` — a forward gen/kill dataflow
  framework (set lattice, worklist to fixpoint) checkers instantiate;
- :mod:`~repro.devtools.engine.flow_checkers` — rng-stream-flow,
  atomic-write, resource-lifecycle;
- :mod:`~repro.devtools.engine.concurrency_checkers` — the RPL6xx
  family (thread-shared-state, thread-lifecycle, spawn-hygiene).

Every rule here is a file checker: it sees one parsed file and runs in
the same per-file pass as the syntactic checkers.
"""

from .cfg import (CFG, CFGNode, build_cfg, iter_function_cfgs,
                  node_fragments)
from .dataflow import ForwardAnalysis, run_forward

__all__ = [
    "CFG",
    "CFGNode",
    "build_cfg",
    "iter_function_cfgs",
    "node_fragments",
    "ForwardAnalysis",
    "run_forward",
]
