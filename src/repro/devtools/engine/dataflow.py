"""Forward dataflow over :class:`~repro.devtools.engine.cfg.CFG`.

A *may* analysis on a set lattice: facts are hashable values, the join
is set union, and a worklist iterates transfer functions to fixpoint.
Checkers subclass :class:`ForwardAnalysis` and implement ``transfer``.

Edge semantics match the CFG builder:

- a **normal** edge propagates the source node's *out* facts (the
  statement completed);
- an **exceptional** edge propagates the source node's *in* facts (the
  statement may have been interrupted before its effect took hold) —
  so e.g. an ``open()`` that raises does not leak a handle fact into
  its handler, while an ``fsync`` inside ``try`` does not count as
  having happened on the except path.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .cfg import CFG, CFGNode

__all__ = ["ForwardAnalysis", "run_forward"]

Facts = frozenset


class ForwardAnalysis:
    """Base class for forward may-analyses.  Subclass and override
    :meth:`transfer`; override :meth:`boundary` for non-empty entry
    facts."""

    def boundary(self) -> Facts:
        """Facts holding at function entry."""
        return frozenset()

    def transfer(self, node: CFGNode, facts: Facts) -> Facts:
        """Out-facts of ``node`` given its in-facts.  Pure: must not
        mutate ``facts``."""
        raise NotImplementedError

    @staticmethod
    def join(sets: Iterable[Facts]) -> Facts:
        merged: set[Hashable] = set()
        for facts in sets:
            merged |= facts
        return frozenset(merged)


def run_forward(cfg: CFG, analysis: ForwardAnalysis
                ) -> dict[int, tuple[Facts, Facts]]:
    """Run ``analysis`` over ``cfg`` to fixpoint.

    Returns ``{node_index: (in_facts, out_facts)}`` for every node.
    """
    normal_preds, exc_preds = cfg.preds()
    in_facts: dict[int, Facts] = {n.index: frozenset() for n in cfg.nodes}
    out_facts: dict[int, Facts] = {n.index: frozenset() for n in cfg.nodes}
    in_facts[cfg.entry.index] = analysis.boundary()

    worklist = [node.index for node in cfg.nodes]
    queued = set(worklist)
    by_index = {node.index: node for node in cfg.nodes}

    while worklist:
        index = worklist.pop(0)
        queued.discard(index)
        node = by_index[index]

        incoming = [out_facts[p.index] for p in normal_preds[index]]
        incoming += [in_facts[p.index] for p in exc_preds[index]]
        if index == cfg.entry.index:
            incoming.append(analysis.boundary())
        new_in = analysis.join(incoming)

        if node.stmt is None:
            new_out = new_in
        else:
            new_out = analysis.transfer(node, new_in)

        if new_in == in_facts[index] and new_out == out_facts[index]:
            continue
        in_facts[index] = new_in
        out_facts[index] = new_out
        for succ in node.succs + node.exc_succs:
            if succ.index not in queued:
                worklist.append(succ.index)
                queued.add(succ.index)

    return {i: (in_facts[i], out_facts[i]) for i in in_facts}
