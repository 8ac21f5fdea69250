"""Flagging and passing fixtures for the RPL6xx concurrency rules:
thread-shared-state (RPL610) and spawn-hygiene (RPL620)."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import LintConfig, lint_paths
from repro.devtools.framework import config_with


def run(tmp_path: Path, checker, code, config=None, name="snippet"):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(code))
    enabled = checker if isinstance(checker, list) else [checker]
    return lint_paths([path], config or LintConfig(), enabled=enabled)[0]


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
    return lint_paths([tmp_path], config, enabled=["spawn-hygiene"])[0]


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
