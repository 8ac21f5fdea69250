"""Tests for the programmatic experiment harness."""

import pytest

from repro.experiments import (EXPERIMENTS, available_experiments,
                               figure13_rows, run_experiment)


class TestRegistry:
    def test_all_figures_and_tables_covered(self):
        """Every evaluation artifact of the paper has an experiment id
        (Table 1 is pure metadata and lives in the models; all others
        are here)."""
        ids = set(available_experiments())
        assert {"table2", "table3", "fig8", "fig9", "fig10",
                "fig11a", "fig11a-measured", "fig11b", "fig12",
                "fig13", "fig14", "fig14-measured"} <= ids

    def test_descriptions_present(self):
        for exp_id, (description, fn) in EXPERIMENTS.items():
            assert description
            assert callable(fn)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestRowShapes:
    def test_table2(self):
        rows = run_experiment("table2")
        assert len(rows) == 3
        assert rows[2]["structure"] == "RecVec"
        assert rows[2]["entries"] < rows[0]["entries"]

    def test_fig9_monotone_noise_column(self):
        rows = run_experiment("fig9")
        noises = [r["noise"] for r in rows]
        assert noises == [0.0, 0.05, 0.1]
        assert rows[2]["oscillation"] < rows[0]["oscillation"]

    def test_fig11a_paper_scale(self):
        rows = run_experiment("fig11a")
        assert len(rows) == 36
        oom_cells = [r for r in rows if r["elapsed"] == "O.O.M"]
        assert oom_cells   # the in-memory models OOM at high scales

    def test_fig12(self):
        rows = run_experiment("fig12")
        assert [r["scale"] for r in rows] == list(range(33, 39))
        assert rows[0]["peak_mem_MB"] == 122   # paper's published value

    def test_fig13_eight_combos(self):
        rows = figure13_rows(scale=8)
        assert len(rows) == 8
        all_on = next(r for r in rows
                      if r["idea1"] and r["idea2"] and r["idea3"])
        all_off = next(r for r in rows
                       if not (r["idea1"] or r["idea2"] or r["idea3"]))
        assert all_on["recursions"] < all_off["recursions"]

    def test_fig10_two_sides(self):
        rows = run_experiment("fig10")
        assert {r["side"] for r in rows} == {"out (researcher)",
                                             "in (paper)"}

    def test_fig14_measured_phases(self):
        rows = run_experiment("fig14-measured")
        phases = {r["phase"] for r in rows}
        assert {"generate", "scramble", "construct",
                "construction_ratio"} <= phases
