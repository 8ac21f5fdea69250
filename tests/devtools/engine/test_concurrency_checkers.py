"""Flagging and passing fixtures for the RPL6xx concurrency family:
thread-shared-state (RPL610), thread-lifecycle (RPL611), and the
whole-program spawn-hygiene rule (RPL620), plus the summary
extension (spawn sites) it is built on."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import LintConfig, lint_file
from repro.devtools.engine import ModuleSummary, run_paths
from repro.devtools.framework import SourceFile, config_with
from repro.devtools.engine.project import summarize_source


def run(tmp_path: Path, checker, code, config=None, name="snippet"):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(code))
    enabled = checker if isinstance(checker, list) else [checker]
    return lint_file(path, config or LintConfig(), enabled=enabled)


def codes(violations):
    return sorted({v.code for v in violations})


# ---------------------------------------------------------------------------
# thread-shared-state (RPL610)
# ---------------------------------------------------------------------------

UNGUARDED_HANDOFF = """
    import threading

    class Sink:
        def __init__(self):
            self._error = None
            self._thread = threading.Thread(target=self._run)
            self._thread.start()

        def _run(self):
            self._error = ValueError("boom")

        def check(self):
            error, self._error = self._error, None
            if error is not None:
                raise error
"""


def test_rpl610_flags_unguarded_cross_thread_write(tmp_path):
    found = run(tmp_path, "thread-shared-state", UNGUARDED_HANDOFF)
    assert codes(found) == ["RPL610"]
    assert "_error" in found[0].message


def test_rpl610_passes_when_every_write_is_locked(tmp_path):
    found = run(tmp_path, "thread-shared-state", """
        import threading

        class Sink:
            def __init__(self):
                self._error = None
                self._error_lock = threading.Lock()
                self._thread = threading.Thread(target=self._run)
                self._thread.start()

            def _run(self):
                with self._error_lock:
                    self._error = ValueError("boom")

            def check(self):
                with self._error_lock:
                    error, self._error = self._error, None
                if error is not None:
                    raise error
    """)
    assert found == []


def test_rpl610_passes_when_attr_is_thread_side_only(tmp_path):
    found = run(tmp_path, "thread-shared-state", """
        import threading

        class Worker:
            def __init__(self):
                self._count = 0
                self._thread = threading.Thread(target=self._run)

            def _run(self):
                self._count += 1

            def close(self):
                self._thread.join()
    """)
    assert found == []


def test_rpl610_follows_self_calls_into_thread_reachable_code(tmp_path):
    found = run(tmp_path, "thread-shared-state", """
        import threading

        class Worker:
            def __init__(self):
                self._state = None
                self._thread = threading.Thread(target=self._run)

            def _run(self):
                self._step()

            def _step(self):
                self._state = 1

            def reset(self):
                self._state = None
    """)
    assert codes(found) == ["RPL610"]


def test_rpl610_ignores_classes_without_threads(tmp_path):
    found = run(tmp_path, "thread-shared-state", """
        class Plain:
            def __init__(self):
                self._value = 0

            def bump(self):
                self._value += 1

            def reset(self):
                self._value = 0
    """)
    assert found == []


# ---------------------------------------------------------------------------
# thread-lifecycle (RPL611)
# ---------------------------------------------------------------------------


def test_rpl611_flags_started_thread_without_join(tmp_path):
    found = run(tmp_path, "thread-lifecycle", """
        import threading

        def fire_and_forget(task):
            t = threading.Thread(target=task)
            t.start()
    """)
    assert codes(found) == ["RPL611"]


def test_rpl611_flags_join_on_only_one_branch(tmp_path):
    found = run(tmp_path, "thread-lifecycle", """
        import threading

        def sometimes(task, wait):
            t = threading.Thread(target=task)
            t.start()
            if wait:
                t.join()
    """)
    assert codes(found) == ["RPL611"]


def test_rpl611_passes_when_joined(tmp_path):
    found = run(tmp_path, "thread-lifecycle", """
        import threading

        def supervised(task):
            t = threading.Thread(target=task)
            t.start()
            try:
                work = 1
            finally:
                t.join()
            return work
    """)
    assert found == []


def test_rpl611_passes_when_thread_escapes(tmp_path):
    found = run(tmp_path, "thread-lifecycle", """
        import threading

        def handoff(task, registry):
            t = threading.Thread(target=task)
            t.start()
            registry.append(t)

        def returned(task):
            t = threading.Thread(target=task)
            t.start()
            return t
    """)
    assert found == []


def test_rpl611_ignores_attribute_stored_threads(tmp_path):
    # ``self._thread = Thread(...)`` hands the lifetime to the object
    # (closed elsewhere); no local fact, no flag.
    found = run(tmp_path, "thread-lifecycle", """
        import threading

        class Sink:
            def __init__(self):
                self._thread = threading.Thread(target=self._run)
                self._thread.start()

            def _run(self):
                return None
    """)
    assert found == []


# ---------------------------------------------------------------------------
# spawn-hygiene (RPL620)
# ---------------------------------------------------------------------------

SPAWN_CFG = config_with(spawn_module_prefixes=("pkg.dist",))


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


def lint_project(tmp_path, modules, config=SPAWN_CFG):
    for module, code in modules.items():
        write_module(tmp_path, module, code)
    run_result = run_paths([tmp_path], config,
                           enabled=["spawn-hygiene"], cache_dir=None)
    return run_result.violations


def test_rpl620_flags_lambda_worker(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.dist.sched": """
            import multiprocessing as mp

            def launch():
                p = mp.Process(target=lambda: 1)
                p.start()
                p.join()
        """})
    assert codes(violations) == ["RPL620"]


def test_rpl620_flags_nested_def_worker(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.dist.sched": """
            import multiprocessing as mp

            def launch(task):
                def inner(item):
                    return item
                p = mp.Process(target=inner, args=(task,))
                p.start()
                p.join()
        """})
    assert codes(violations) == ["RPL620"]


def test_rpl620_passes_module_level_worker(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.dist.sched": """
            import multiprocessing as mp

            def _worker(task):
                return task

            def launch(task):
                p = mp.Process(target=_worker, args=(task,))
                p.start()
                p.join()
        """})
    assert violations == []


def test_rpl620_out_of_scope_module_is_quiet(tmp_path):
    violations = lint_project(tmp_path, {
        "pkg.app": """
            import multiprocessing as mp

            def launch():
                p = mp.Process(target=lambda: 1)
                p.start()
                p.join()
        """})
    assert violations == []


# ---------------------------------------------------------------------------
# summary extension: spawn sites
# ---------------------------------------------------------------------------


def summarize(path: Path) -> ModuleSummary:
    return summarize_source(SourceFile.parse(path))


def test_summary_records_spawn_sites(tmp_path):
    path = write_module(tmp_path, "pkg.dist.sched", """
        import multiprocessing as mp

        def _worker(task):
            return task

        def launch(task):
            p = mp.Process(target=_worker, args=(task,))
            p.start()
            p.join()
    """)
    summary = summarize(path)
    (site,) = summary.spawn_sites
    assert site["function"] == "launch"
    assert site["callee"] == "mp.Process"
    assert "_worker" in site["workers"]


def test_summary_spawn_sites_survive_json_round_trip(tmp_path):
    path = write_module(tmp_path, "pkg.dist.sched", """
        import multiprocessing as mp

        def _worker(task):
            return task

        def launch(task):
            p = mp.Process(target=_worker, args=(task,))
            p.start()
            p.join()
    """)
    summary = summarize(path)
    doc = summary.to_json()
    rebuilt = ModuleSummary.from_json(doc)
    assert rebuilt.spawn_sites == summary.spawn_sites


def test_summary_from_json_tolerates_pre_21_documents(tmp_path):
    path = write_module(tmp_path, "pkg.mod", "X = 1\n")
    doc = summarize(path).to_json()
    del doc["spawn_sites"]
    rebuilt = ModuleSummary.from_json(doc)
    assert rebuilt.spawn_sites == []
