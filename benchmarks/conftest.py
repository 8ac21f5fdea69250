"""Shared helpers for the per-figure benchmark harness.

Every file in this directory regenerates one table or figure of the
paper's evaluation section.  Measured numbers come from real runs at
reduced scales; paper-scale series come from the calibrated cost model
(see DESIGN.md's substitution table).  A figure's numbers come from its
rows function in :mod:`repro.experiments`, the published values from
``repro.experiments.PAPER``.  Each benchmark prints its rows so
``pytest benchmarks/ --benchmark-only -s`` reproduces the evaluation.
"""

from __future__ import annotations

from pathlib import Path

import pytest


def print_table(title: str, headers: list[str],
                rows: list[list[object]]) -> None:
    """Fixed-width table printer for benchmark output."""
    widths = [max(len(str(h)),
                  max((len(str(r[i])) for r in rows), default=0))
              for i, h in enumerate(headers)]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


@pytest.fixture()
def table():
    return print_table


@pytest.fixture()
def bench_out() -> Path:
    """The ignored ``.bench_out/`` at the repo root, where a benchmark
    leaves its JSON record: a run never writes into tracked files."""
    out = Path(__file__).resolve().parent.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    return out
