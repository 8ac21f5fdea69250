"""CLI behaviour (exit codes, reporters) and the repo self-check."""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.devtools import all_checkers, lint_paths
from repro.devtools.lint import build_parser, main

CLEAN = "__all__ = ['f']\n\n\ndef f():\n    return 0\n"
DIRTY = ("import random\n\n__all__ = ['f']\n\n\n"
         "def f(x=[]):\n"
         "    return x == 0.3\n")


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "ok.py").write_text(CLEAN)
    assert main([str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_one_with_correct_report_on_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(DIRTY)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    # one line per finding, path:line:col prefixed, plus a summary footer
    assert f"{bad}:1:0: RPL101" in out
    assert "RPL601" in out and "RPL301" in out
    assert "3 finding(s) in 1 file(s)" in out


def test_json_report(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(DIRTY)
    assert main([str(tmp_path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["tool"] == "reprolint"
    assert doc["files_checked"] == 1
    assert doc["summary"] == {"mutable-defaults": 1,
                              "numerical-safety": 1,
                              "rng-determinism": 1}
    assert {v["code"] for v in doc["violations"]} == {
        "RPL101", "RPL301", "RPL601"}


def test_select_and_ignore(tmp_path):
    (tmp_path / "bad.py").write_text(DIRTY)
    assert main([str(tmp_path), "--select", "exception-hygiene"]) == 0
    assert main([str(tmp_path), "--ignore",
                 "rng-determinism,mutable-defaults,numerical-safety"]) == 0


def test_exit_two_on_unknown_checker(tmp_path, capsys):
    (tmp_path / "ok.py").write_text(CLEAN)
    assert main([str(tmp_path), "--select", "nope"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert main([str(tmp_path / "absent.q")]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_two_on_syntax_error(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def f(:\n")
    assert main([str(tmp_path)]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_exit_three_on_internal_engine_error(tmp_path, capsys,
                                             monkeypatch):
    import repro.devtools.lint as lint

    def boom(*args, **kwargs):
        raise RuntimeError("worklist exploded")

    # main() calls the module-level lint_paths name, so patching it is
    # enough to simulate a crash.
    monkeypatch.setattr(lint, "lint_paths", boom)
    (tmp_path / "ok.py").write_text(CLEAN)
    assert main([str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "internal engine error" in err
    assert "worklist exploded" in err


def test_engine_error_not_conflated_with_findings(tmp_path, capsys):
    # the three exit codes are distinct outcomes of the same invocation
    # shape: clean -> 0, findings -> 1 (covered above), crash -> 3
    (tmp_path / "bad.py").write_text(DIRTY)
    assert main([str(tmp_path)]) == 1
    capsys.readouterr()
    (tmp_path / "bad.py").write_text(CLEAN)
    assert main([str(tmp_path)]) == 0


def test_list_checkers(capsys):
    assert main(["--list-checkers"]) == 0
    out = capsys.readouterr().out
    for name in ("rng-determinism", "layering", "numerical-safety",
                 "exception-hygiene", "api-completeness",
                 "mutable-defaults"):
        assert name in out
    codes = {word.rstrip(",") for word in out.split()
             if word.startswith("RPL")}
    assert codes == {
        "RPL101", "RPL102", "RPL103", "RPL201", "RPL301", "RPL302",
        "RPL401", "RPL402", "RPL403", "RPL404",
        "RPL501", "RPL502", "RPL503", "RPL504", "RPL507", "RPL508",
        "RPL601", "RPL610", "RPL620", "RPL701"}
    assert len(out.splitlines()) == 10


def test_at_least_six_checkers_registered():
    assert len(all_checkers()) >= 6


def test_no_flag_beyond_format_select_ignore_and_list():
    flags = {opt for action in build_parser()._actions
             for opt in action.option_strings}
    assert flags == {"-h", "--help", "--format", "--select", "--ignore",
                     "--list-checkers"}


def test_reprolint_runs_clean_on_the_repo_itself():
    """The acceptance gate: what CI lints carries zero violations."""
    root = Path(repro.__file__).resolve().parents[2]
    targets = [root / "src" / "repro", root / "tests", root / "benchmarks",
               root / "examples"]
    violations, files_checked = lint_paths(targets)
    assert violations == [], "\n".join(v.render() for v in violations)
    assert files_checked > 200
