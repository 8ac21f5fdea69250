"""Figure 13: impact of the three performance Ideas.

Runs the instrumented reference engine
(:func:`repro.experiments.figure13_rows`) through all eight on/off
combinations of (Idea #1 reuse RecVec, Idea #2 fewer recursions, Idea #3
one random value) at scale 12 (paper: 27) and reports both wall time and
the work counters.  Shape assertions from the paper:

- Idea #1 alone improves performance "at least by 3.38 times" — here the
  all-off vs #1-only comparison must show a large gap;
- with #1 applied, turning on #2 and #3 together gives a further ~2x;
- all-on is the fastest configuration.
"""

import pytest

from benchmarks.conftest import PAPER
from repro.experiments import figure13_rows

SCALE = 12

COMBOS = [(i1, i2, i3) for i1 in (False, True) for i2 in (False, True)
          for i3 in (False, True)]


@pytest.fixture(scope="module")
def ablation():
    """``(seconds, row)`` per ``(idea1, idea2, idea3)`` combination."""
    return {(row["idea1"], row["idea2"], row["idea3"]): (row["seconds"], row)
            for row in figure13_rows(scale=SCALE)}


def fmt(flag: bool) -> str:
    return "O" if flag else "X"


def test_figure13_table(benchmark, ablation, table):
    def rows():
        out = []
        for combo in COMBOS:
            dt, row = ablation[combo]
            paper_s = PAPER["fig13"][combo]
            out.append([fmt(combo[0]), fmt(combo[1]), fmt(combo[2]),
                        dt, paper_s, row["recursions"], row["draws"],
                        row["recvec_builds"]])
        return out

    data = benchmark.pedantic(rows, rounds=1, iterations=1)
    table("Figure 13: idea ablation (scale 12; paper column is scale 27 "
          "on 60 threads)",
          ["Idea#1", "Idea#2", "Idea#3", "ours (s)", "paper (s)",
           "recursions", "draws", "recvec builds"], data)


def test_all_on_is_fastest(benchmark, ablation):
    times = benchmark.pedantic(
        lambda: {c: ablation[c][0] for c in COMBOS}, rounds=1,
        iterations=1)
    fastest = min(times, key=times.get)
    # All-on must be fastest or within noise (10%) of the fastest combo.
    assert times[(True, True, True)] <= 1.1 * times[fastest]


def test_idea1_dominates(benchmark, ablation):
    """Idea #1 is the paper's biggest single win (>= 3.38x there; the
    Python reference loop shows the same dominance)."""

    def ratio():
        return (ablation[(False, True, True)][0]
                / ablation[(True, True, True)][0])

    value = benchmark.pedantic(ratio, rounds=1, iterations=1)
    assert value > 1.5


def test_ideas_2_and_3_help_once_1_is_on(benchmark, ablation):
    """With Idea #1 applied, #2+#3 together give a further speedup
    (paper: 2.47x)."""

    def ratio():
        return (ablation[(True, False, False)][0]
                / ablation[(True, True, True)][0])

    value = benchmark.pedantic(ratio, rounds=1, iterations=1)
    assert value > 1.3


def test_work_counters_match_idea_semantics(benchmark, ablation):
    def counters():
        return {c: ablation[c][1] for c in COMBOS}

    stats = benchmark.pedantic(counters, rounds=1, iterations=1)
    on = stats[(True, True, True)]
    # Idea #2 off => recursions jump to log|V| per attempt.
    assert stats[(True, False, True)]["recursions"] \
        > 2.5 * on["recursions"]
    # Idea #3 off => one draw per recursion instead of one per edge.
    assert stats[(True, True, False)]["draws"] > 2 * on["draws"]
    # Idea #1 off => one RecVec build per attempt instead of per scope.
    assert stats[(False, True, True)]["recvec_builds"] \
        > 5 * on["recvec_builds"]


def test_idea1_helps_in_every_configuration(benchmark, ablation):
    """Pairwise version of the published dominance of Idea #1: for every
    setting of Ideas #2/#3, switching Idea #1 on speeds the run up.

    (The paper's stronger ordering — every with-#1 config beating every
    without-#1 config — holds in their Scala implementation where the
    RecVec build is relatively costlier; in this Python reference loop
    the (X,O,O) and (O,X,X) cells can tie within noise.)
    """

    def verdict():
        return {(i2, i3): (ablation[(False, i2, i3)][0],
                           ablation[(True, i2, i3)][0])
                for i2 in (False, True) for i3 in (False, True)}

    pairs = benchmark.pedantic(verdict, rounds=1, iterations=1)
    for key, (off, on) in pairs.items():
        assert on < off, (key, on, off)


def test_overall_ablation_span(benchmark, ablation):
    """All ideas together vs none: the paper's combined effect is
    159/19 ~ 8.4x; the reference loop shows a span of the same order."""

    def ratio():
        return (ablation[(False, False, False)][0]
                / ablation[(True, True, True)][0])

    value = benchmark.pedantic(ratio, rounds=1, iterations=1)
    assert value > 4
