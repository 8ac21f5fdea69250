"""Project model: summary serialization, re-export resolution, the
call graph, RPL210 (re-export laundering + dynamic imports), RPL701
dead-pragma provability, and the golden whole-repo reachability test."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import LintConfig
from repro.devtools.engine import (ModuleSummary, ProjectModel, run_paths,
                                   summarize_source)
from repro.devtools.framework import SourceFile, config_with

SRC_REPRO = Path(__file__).resolve().parents[3] / "src" / "repro"


def write_module(tmp_path: Path, module: str, code: str) -> Path:
    parts = module.split(".")
    directory = tmp_path
    for pkg in parts[:-1]:
        directory = directory / pkg
        directory.mkdir(exist_ok=True)
        (directory / "__init__.py").touch()
    path = directory / f"{parts[-1]}.py"
    path.write_text(textwrap.dedent(code))
    return path


def summarize(path: Path) -> ModuleSummary:
    return summarize_source(SourceFile.parse(path))


def build_project(tmp_path: Path, modules: dict[str, str],
                  config: LintConfig | None = None) -> ProjectModel:
    summaries = [summarize(write_module(tmp_path, module, code))
                 for module, code in modules.items()]
    return ProjectModel(summaries, config or LintConfig())


# -- summaries ---------------------------------------------------------


def test_summary_json_round_trip(tmp_path):
    path = write_module(tmp_path, "pkg.mod", """
        import importlib
        from os import path as osp

        __all__ = ["api", "Box"]

        def api(x):
            return helper(x.step())

        def helper(y):
            mod = importlib.import_module("pkg.other")
            return mod.f(y)

        class Box:
            def put(self, v):
                self.v = v
    """)
    summary = summarize(path)
    doc = summary.to_json()
    again = ModuleSummary.from_json(doc)
    assert again.to_json() == doc
    assert again.module == "pkg.mod"
    assert "api" in again.functions and "helper" in again.functions
    assert again.classes["Box"].methods == ["put"]
    assert "pkg.other" in {mod for mod, _line in again.dynamic_imports}
    assert list(again.exports) == ["api", "Box"]


def test_summary_records_scoped_and_relative_imports(tmp_path):
    path = write_module(tmp_path, "pkg.sub.mod", """
        from ..core import thing

        def lazy():
            from pkg import late
            return late
    """)
    summary = summarize(path)
    by_alias = {rec.alias: rec for rec in summary.imports}
    assert by_alias["thing"].module == "pkg.core"
    assert by_alias["late"].scope == "function"
    assert by_alias["late"].function == "lazy"


# -- resolution --------------------------------------------------------


def test_resolve_follows_re_export_chain(tmp_path):
    project = build_project(tmp_path, {
        "pkg.impl": "def f():\n    return 1\n",
        "pkg.shim": "from pkg.impl import f\n",
        "pkg.user": "from pkg.shim import f\n",
    })
    assert project.resolve("pkg.user", "f") == ("pkg.impl", "f")


def test_resolve_chain_through_module_alias(tmp_path):
    project = build_project(tmp_path, {
        "pkg.impl": "def f():\n    return 1\n",
        "pkg.user": "import pkg.impl as imp\n\ndef g():\n"
                    "    return imp.f()\n",
    })
    assert project.resolve_chain("pkg.user", "imp.f") == ("pkg.impl", "f")


def test_call_graph_resolves_cross_module_edges(tmp_path):
    project = build_project(tmp_path, {
        "pkg.low": "def leaf():\n    return 0\n",
        "pkg.mid": "from pkg.low import leaf\n\ndef step():\n"
                   "    return leaf()\n",
        "pkg.top": "from pkg.mid import step\n\ndef run():\n"
                   "    return step()\n",
    })
    assert "pkg.mid:step" in project.call_edges("pkg.top:run")
    path = project.reaches("pkg.top:run", "pkg.low")
    assert path == ["pkg.top:run", "pkg.mid:step", "pkg.low:leaf"]


def test_reaches_expands_class_construction_into_methods(tmp_path):
    project = build_project(tmp_path, {
        "pkg.sink": "class Sink:\n    def write(self):\n"
                    "        import pkg.deep\n",
        "pkg.top": "from pkg.sink import Sink\n\ndef run():\n"
                   "    return Sink()\n",
    })
    assert project.reaches("pkg.top:run", "pkg.sink") != []


# -- the golden test: the real repo ------------------------------------


def test_golden_generate_to_reaches_formats_pipeline():
    summaries = [summarize(p) for p in sorted(SRC_REPRO.rglob("*.py"))]
    project = ProjectModel(summaries, LintConfig())
    start = "repro.system:TrillionG.generate_to"
    assert "TrillionG.generate_to" in project.modules["repro.system"].functions
    path = project.reaches(start, "repro.formats.pipeline")
    assert path, ("generate_to must reach the block-streaming output "
                  "pipeline through the call graph")
    assert path[0] == start
    assert path[-1].startswith("repro.formats.pipeline:")


# -- RPL210: callgraph layering ----------------------------------------

LAYERED = config_with(layering_rules={"pkg.core": ("pkg.dist",)})


def lint_project(tmp_path, modules, config, enabled):
    for module, code in modules.items():
        write_module(tmp_path, module, code)
    run = run_paths([tmp_path], config, enabled=enabled, cache_dir=None)
    return run.violations


def test_rpl210_flags_re_export_laundering(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.dist.pool": "def run_tasks():\n    return []\n",
        "pkg.glue": "from pkg.dist.pool import run_tasks\n",
        "pkg.core.engine": "from pkg.glue import run_tasks\n",
    }, LAYERED, ["callgraph-layering"])
    assert [v.code for v in violations] == ["RPL210"]
    assert "re-export laundering" in violations[0].message


def test_rpl210_flags_dynamic_import(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.dist.pool": "def run_tasks():\n    return []\n",
        "pkg.core.engine": "import importlib\n\ndef lazy():\n"
                           "    return importlib.import_module("
                           "'pkg.dist.pool')\n",
    }, LAYERED, ["callgraph-layering"])
    assert [v.code for v in violations] == ["RPL210"]
    assert "importlib" in violations[0].message


def test_rpl210_quiet_for_clean_layering(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.util.misc": "def helper():\n    return 1\n",
        "pkg.glue": "from pkg.util.misc import helper\n",
        "pkg.core.engine": "from pkg.glue import helper\n",
    }, LAYERED, ["callgraph-layering"])
    assert violations == []


def test_rpl210_leaves_literal_banned_imports_to_rpl201(tmp_path):
    # the literal target is already in the banned layer: that is the
    # per-file RPL201 rule's finding, not a laundering case
    violations = lint_project(tmp_path, {
        "pkg.dist.pool": "def run_tasks():\n    return []\n",
        "pkg.core.engine": "from pkg.dist.pool import run_tasks\n",
    }, LAYERED, ["callgraph-layering"])
    assert violations == []


# -- RPL701: dead pragmas ----------------------------------------------


def test_rpl701_flags_pragma_that_suppresses_nothing(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.mod": "x = 1  # reprolint: disable=RPL320\n",
    }, LintConfig(), ["resource-lifecycle", "dead-pragma"])
    assert [v.code for v in violations] == ["RPL701"]


def test_rpl701_quiet_when_pragma_is_used(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.mod": ("def keep(path):\n"
                    "    fh = open(path)  # reprolint: disable=RPL320\n"
                    "    return fh.read(1)\n"),
    }, LintConfig(), ["resource-lifecycle", "dead-pragma"])
    assert violations == []


def test_rpl701_not_provable_when_checker_did_not_run(tmp_path):
    # resource-lifecycle is not in the enabled set, so its silence
    # proves nothing about the pragma
    violations = lint_project(tmp_path, {
        "pkg.mod": "x = 1  # reprolint: disable=RPL320\n",
    }, LintConfig(), ["rng-determinism", "dead-pragma"])
    assert violations == []


def test_rpl701_not_provable_when_code_profile_disabled(tmp_path):
    config = config_with(disabled_codes=frozenset({"RPL320"}))
    violations = lint_project(tmp_path, {
        "pkg.mod": "x = 1  # reprolint: disable=RPL320\n",
    }, config, ["resource-lifecycle", "dead-pragma"])
    assert violations == []
