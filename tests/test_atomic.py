"""``repro.atomic.atomic_write``: the durability protocol every published
file goes through, and the one place in ``src/repro`` that renames."""

import ast
import os
from pathlib import Path

import pytest

from repro.atomic import atomic_write

ROOT = Path(__file__).resolve().parents[1]


def test_fsync_comes_before_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append("fsync")
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    target = tmp_path / "out.bin"
    with atomic_write(target) as tmp:
        # a name the checkpoint recovery sweep (``*.partial*``) matches
        assert tmp == tmp_path / f"out.bin.partial.{os.getpid()}"
        tmp.write_bytes(b"payload")
    # the file's data, then the rename, then the directory entry
    assert events == ["fsync", "replace", "fsync"]
    assert target.read_bytes() == b"payload"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


@pytest.mark.parametrize("old", [None, b"old"])
def test_exception_leaves_target_as_it_was_and_no_temporary(tmp_path, old):
    target = tmp_path / "out.bin"
    if old is not None:
        target.write_bytes(old)
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(target) as tmp:
            tmp.write_bytes(b"torn")
            raise RuntimeError("mid-write")
    assert [p.name for p in tmp_path.iterdir()] == (
        [] if old is None else ["out.bin"])
    if old is not None:
        assert target.read_bytes() == old


def _renames(tree):
    """Line numbers of ``os.replace``/``os.rename``, of one-argument
    ``.replace(...)``/``.rename(...)`` method calls (``Path`` renames;
    ``str.replace`` takes two) and of ``from os import replace``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "os"
                and {a.name for a in node.names} & {"replace", "rename"}):
            yield node.lineno
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("replace", "rename")):
            continue
        owner = node.func.value
        if ((isinstance(owner, ast.Name) and owner.id == "os")
                or (len(node.args) == 1 and not node.keywords)):
            yield node.lineno


def test_only_the_helper_renames_a_file():
    found = {path.relative_to(ROOT).as_posix(): list(_renames(
                 ast.parse(path.read_text(), filename=str(path))))
             for path in sorted((ROOT / "src" / "repro").rglob("*.py"))}
    renaming = {path: lines for path, lines in found.items() if lines}
    assert list(renaming) == ["src/repro/atomic.py"], renaming
    assert len(renaming["src/repro/atomic.py"]) == 1
