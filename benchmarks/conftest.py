"""Shared helpers for the per-figure benchmark harness.

Every file in this directory regenerates one table or figure of the
paper's evaluation section.  Measured numbers come from real runs at
reduced scales; paper-scale series come from the calibrated cost model
(see DESIGN.md's substitution table).  Each benchmark prints its rows so
``pytest benchmarks/ --benchmark-only -s`` reproduces the evaluation.
"""

from __future__ import annotations

from pathlib import Path

import pytest

#: Published values transcribed from the paper, used for side-by-side
#: printouts and shape assertions.
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
    "fig12_time": {33: 843, 34: 1639, 35: 3318, 36: 6675, 37: 13199,
                   38: 27567},
    "fig12_mem_mb": {33: 122, 34: 186, 35: 283, 36: 430, 37: 653,
                     38: 992},
    "fig13": {  # (idea1, idea2, idea3) -> seconds at scale 27
        (False, False, False): 159, (False, False, True): 144,
        (False, True, False): 141, (False, True, True): 129,
        (True, False, False): 47, (True, False, True): 33,
        (True, True, False): 30, (True, True, True): 19,
    },
    "fig14_tg": {25: 11, 26: 16, 27: 27, 28: 44, 29: 72, 30: 140},
    "fig14_g500_1g": {25: 680, 26: 1100, 27: 2465, 28: 4835, 29: 10178},
    "fig14_g500_ib": {25: 12, 26: 27, 27: 66, 28: 172, 29: 877},
}


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
