"""Schema-driven rich graph generation (Section 6.2).

Given a :class:`~repro.rich_graph.config.GraphConfig`, the generator
conceptually divides the probability matrix into the coloured rectangles of
Figure 7(b) — one per degree rule — and generates each rectangle with the
ERV model.  Edges come out typed: ``(source, predicate_id, destination)``
with global vertex IDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.generator import AdjacencyBlock
from ..core.rng import derive_seed
from ..formats.tsv import TsvFormat
from .config import EdgeRule, GraphConfig
from .erv import ErvGenerator

__all__ = ["TypedEdges", "RichGraphGenerator"]


@dataclass
class TypedEdges:
    """Edges of one predicate rule, in global vertex IDs."""

    rule: EdgeRule
    predicate_id: int
    edges: np.ndarray          # (m, 2) global (source, destination)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def as_triples(self) -> np.ndarray:
        """(source, predicate_id, destination) rows."""
        out = np.empty((self.num_edges, 3), dtype=np.int64)
        out[:, 0] = self.edges[:, 0]
        out[:, 1] = self.predicate_id
        out[:, 2] = self.edges[:, 1]
        return out


class RichGraphGenerator:
    """Generate a complete rich graph from a configuration."""

    def __init__(self, config: GraphConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed

    def _rule_runs(self, rule_index: int) -> Iterator[AdjacencyBlock]:
        """One rule's rectangle in global IDs, an ERV run at a time."""
        config = self.config
        rule = config.rules[rule_index]
        src_lo, src_hi = config.vertex_range(rule.source)
        dst_lo, dst_hi = config.vertex_range(rule.target)
        erv = ErvGenerator(
            src_hi - src_lo, dst_hi - dst_lo,
            config.rule_edge_budget(rule),
            rule.out_distribution, rule.in_distribution,
            seed=derive_seed(self.seed, rule_index))
        for run in erv.runs():
            yield AdjacencyBlock(run.sources + src_lo, run.offsets,
                                 run.destinations + dst_lo)

    def generate_rule(self, rule_index: int) -> TypedEdges:
        """Generate one rule's rectangle."""
        rule = self.config.rules[rule_index]
        edges = np.concatenate([run.edge_array()
                                for run in self._rule_runs(rule_index)])
        return TypedEdges(rule, self.config.predicate_id(rule.predicate),
                          edges)

    def generate(self) -> list[TypedEdges]:
        """Generate every rule."""
        return [self.generate_rule(i) for i in range(len(self.config.rules))]

    def all_triples(self) -> np.ndarray:
        """All edges as (source, predicate_id, destination) rows."""
        parts = [t.as_triples() for t in self.generate()]
        if not parts:
            return np.empty((0, 3), dtype=np.int64)
        return np.concatenate(parts)

    def write_ntriples(self, path: Path | str) -> int:
        """Write the graph as line-based triples
        (``<source> predicate <destination>``), the interchange format the
        semantic benchmarks consume, through the TSV block encoder: the
        predicate is rendered once per source, not per edge.  Returns the
        number of lines."""
        with TsvFormat().open_writer(path, self.config.num_vertices) as out:
            for index, rule in enumerate(self.config.rules):
                for run in self._rule_runs(index):
                    out.add_block(run, label=rule.predicate)
        return out.num_edges
