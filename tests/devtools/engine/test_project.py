"""RPL701 dead-pragma over a small project tree: a pragma that
suppressed nothing is flagged, but only when every rule it targets
provably ran on the file."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import LintConfig, lint_paths
from repro.devtools.framework import config_with


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


def lint_project(tmp_path, modules, config, enabled):
    for module, code in modules.items():
        write_module(tmp_path, module, code)
    return lint_paths([tmp_path], config, enabled=enabled)[0]


# -- RPL701: dead pragmas ----------------------------------------------


def test_rpl701_flags_pragma_that_suppresses_nothing(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.mod": "x = 1  # reprolint: disable=RPL601\n",
    }, LintConfig(), ["mutable-defaults", "dead-pragma"])
    assert [v.code for v in violations] == ["RPL701"]


def test_rpl701_quiet_when_pragma_is_used(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.mod": ("def keep(acc=[]):  # reprolint: disable=RPL601\n"
                    "    return acc\n"),
    }, LintConfig(), ["mutable-defaults", "dead-pragma"])
    assert violations == []


def test_rpl701_not_provable_when_checker_did_not_run(tmp_path):
    # mutable-defaults is not in the enabled set, so its silence
    # proves nothing about the pragma
    violations = lint_project(tmp_path, {
        "pkg.mod": "x = 1  # reprolint: disable=RPL601\n",
    }, LintConfig(), ["rng-determinism", "dead-pragma"])
    assert violations == []


def test_rpl701_not_provable_when_code_profile_disabled(tmp_path):
    config = config_with(disabled_codes=frozenset({"RPL601"}))
    violations = lint_project(tmp_path, {
        "pkg.mod": "x = 1  # reprolint: disable=RPL601\n",
    }, config, ["mutable-defaults", "dead-pragma"])
    assert violations == []


def test_rpl701_flags_pragma_naming_a_code_no_rule_owns(tmp_path):
    # a pragma left behind by a deleted rule can never suppress again
    violations = lint_project(tmp_path, {
        "pkg.mod": "x = 1  # reprolint: disable=RPL999\n",
    }, LintConfig(), ["dead-pragma"])
    assert [v.code for v in violations] == ["RPL701"]
