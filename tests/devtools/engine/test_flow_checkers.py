"""Flagging and passing fixtures for the flow-sensitive checker
families (RPL110/111 rng-stream-flow, RPL310/311 atomic-write, RPL320
resource-lifecycle), plus the v1-vs-v2 regression tests: cases the old
syntactic rules provably miss."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.devtools import LintConfig, lint_paths
from repro.devtools.framework import config_with

V1_CHECKERS = ["rng-determinism", "layering", "numerical-safety",
               "exception-hygiene", "api-completeness", "telemetry",
               "mutable-defaults"]


def run(tmp_path: Path, checker, code, config=None, name="snippet"):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(code))
    enabled = checker if isinstance(checker, list) else [checker]
    return lint_paths([path], config or LintConfig(), enabled=enabled)[0]


def codes(violations):
    return sorted({v.code for v in violations})


ATOMIC_CFG = config_with(atomic_write_module_prefixes=("snippet",))


# ---------------------------------------------------------------------------
# rng-stream-flow (RPL110/111)
# ---------------------------------------------------------------------------

SHIP_THEN_DRAW = """
    from multiprocessing import Process
    from repro.core.rng import stream

    def parent(seed, queue, worker):
        rng = stream(seed, 0, 1)
        proc = Process(target=worker, args=(rng, queue))
        proc.start()
        return rng.random(8)
"""


def test_rpl110_flags_stream_drawn_after_shipping(tmp_path):
    found = run(tmp_path, "rng-stream-flow", SHIP_THEN_DRAW)
    assert codes(found) == ["RPL110"]


def test_rpl110_passes_when_seed_ships_instead_of_stream(tmp_path):
    found = run(tmp_path, "rng-stream-flow", """
        from multiprocessing import Process
        from repro.core.rng import stream

        def parent(seed, queue, worker):
            proc = Process(target=worker, args=(seed, queue))
            proc.start()
            rng = stream(seed, 0, 1)
            return rng.random(8)
    """)
    assert found == []


def test_rpl110_passes_when_shipped_stream_is_never_drawn(tmp_path):
    found = run(tmp_path, "rng-stream-flow", """
        from multiprocessing import Process
        from repro.core.rng import stream

        def parent(seed, queue, worker):
            rng = stream(seed, 0, 1)
            proc = Process(target=worker, args=(rng, queue))
            proc.start()
            proc.join()
    """)
    assert found == []


def test_rpl111_flags_same_seed_derived_twice_on_one_path(tmp_path):
    found = run(tmp_path, "rng-stream-flow", """
        from repro.core.rng import stream

        def pair(seed):
            a = stream(seed, 0, 1)
            b = stream(seed, 0, 1)
            return a, b
    """)
    assert codes(found) == ["RPL111"]


def test_rpl111_passes_for_mutually_exclusive_branches(tmp_path):
    # both derivations are textually identical, but no execution path
    # runs both — only a path-sensitive analysis can tell the difference
    found = run(tmp_path, "rng-stream-flow", """
        from repro.core.rng import stream

        def pick(seed, flag):
            if flag:
                rng = stream(seed, 0, 1)
            else:
                rng = stream(seed, 0, 1)
            return rng
    """)
    assert found == []


def test_rpl111_passes_for_distinct_arguments(tmp_path):
    found = run(tmp_path, "rng-stream-flow", """
        from repro.core.rng import stream

        def pair(seed):
            a = stream(seed, 0, 1)
            b = stream(seed, 0, 2)
            return a, b
    """)
    assert found == []


def test_v1_provably_misses_shipped_stream_redraw(tmp_path):
    """The v2 regression anchor: every v1 syntactic rule passes the
    ship-then-draw hazard (``stream()`` *is* the blessed constructor),
    while the dataflow analysis catches the forked state."""
    v1 = run(tmp_path, V1_CHECKERS, SHIP_THEN_DRAW)
    v2 = run(tmp_path, "rng-stream-flow", SHIP_THEN_DRAW)
    # v1 has nothing to say about RNG misuse here (RPL1xx is silent);
    # only unrelated style codes may appear
    assert [v for v in v1 if v.code.startswith("RPL1")] == []
    assert codes(v2) == ["RPL110"]


# ---------------------------------------------------------------------------
# atomic-write (RPL310/311)
# ---------------------------------------------------------------------------

FSYNC_ONE_PATH = """
    import os

    def save(path, data, fast):
        staging = path + ".new"
        fh = open(staging, "wb")
        fh.write(data)
        if not fast:
            fh.flush()
            os.fsync(fh.fileno())
        fh.close()
        os.replace(staging, path)
"""


def test_rpl310_flags_rename_without_fsync(tmp_path):
    found = run(tmp_path, "atomic-write", """
        import os

        def save(path, data):
            staging = path + ".new"
            fh = open(staging, "wb")
            fh.write(data)
            fh.close()
            os.replace(staging, path)
    """, config=ATOMIC_CFG)
    assert codes(found) == ["RPL310"]


def test_rpl310_flags_fsync_on_one_path_only(tmp_path):
    found = run(tmp_path, "atomic-write", FSYNC_ONE_PATH,
                config=ATOMIC_CFG)
    assert codes(found) == ["RPL310"]


def test_rpl310_passes_full_protocol(tmp_path):
    found = run(tmp_path, "atomic-write", """
        import os

        def save(path, data):
            staging = path + ".new"
            fh = open(staging, "wb")
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()
            os.replace(staging, path)
    """, config=ATOMIC_CFG)
    assert found == []


def test_rpl310_silent_outside_configured_modules(tmp_path):
    found = run(tmp_path, "atomic-write", FSYNC_ONE_PATH)
    assert found == []


def test_rpl311_flags_leakable_temp_file(tmp_path):
    found = run(tmp_path, "atomic-write", """
        import os

        def spill(path, blocks, encode):
            tmp = path + ".partial"
            fh = open(tmp, "wb")
            fh.write(encode(blocks))
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()
            os.replace(tmp, path)
    """, config=ATOMIC_CFG)
    assert "RPL311" in codes(found)


def test_rpl311_passes_try_finally_unlink(tmp_path):
    found = run(tmp_path, "atomic-write", """
        import os

        def spill(path, blocks, encode):
            tmp = path.with_suffix(".partial")
            try:
                fh = tmp.open("wb")
                fh.write(encode(blocks))
                fh.flush()
                os.fsync(fh.fileno())
                fh.close()
                tmp.replace(path)
            finally:
                tmp.unlink(missing_ok=True)
    """, config=ATOMIC_CFG)
    assert found == []


def test_str_replace_is_not_a_rename(tmp_path):
    found = run(tmp_path, "atomic-write", """
        def clean(name):
            label = name + "-raw"
            return label.replace("-raw", "")
    """, config=ATOMIC_CFG)
    assert found == []


def test_v1_provably_misses_partial_fsync_path(tmp_path):
    """A syntactic scan sees ``flush``+``fsync``+``replace`` all present
    and stays quiet; only walking the CFG shows the ``fast`` path
    reaches the rename with an unfsynced handle."""
    v1 = run(tmp_path, V1_CHECKERS, FSYNC_ONE_PATH, config=ATOMIC_CFG)
    v2 = run(tmp_path, "atomic-write", FSYNC_ONE_PATH, config=ATOMIC_CFG)
    assert [v for v in v1 if v.code.startswith("RPL3")] == []
    assert codes(v2) == ["RPL310"]


# ---------------------------------------------------------------------------
# resource-lifecycle (RPL320)
# ---------------------------------------------------------------------------


def test_rpl320_flags_handle_leaked_on_early_return(tmp_path):
    found = run(tmp_path, "resource-lifecycle", """
        def read_header(path, strict):
            fh = open(path, "rb")
            magic = fh.read(4)
            if magic != b"TRIL":
                return None
            body = fh.read()
            fh.close()
            return body
    """)
    assert codes(found) == ["RPL320"]


RPL320_PASSES = [
    # with-statement manages the handle
    """
    def read(path):
        with open(path, "rb") as fh:
            return fh.read()
    """,
    # try/finally closes on every path
    """
    def read(path, strict):
        fh = open(path, "rb")
        try:
            if strict:
                return fh.read(4)
            return fh.read()
        finally:
            fh.close()
    """,
    # returned handle escapes to the caller
    """
    def open_sink(path):
        fh = open(path, "wb")
        return fh
    """,
    # handle passed on: ownership transferred
    """
    def wrap(path, adopt):
        fh = open(path, "rb")
        return adopt(fh)
    """,
    # closed on both arms of a branch
    """
    def read(path, strict):
        fh = open(path, "rb")
        if strict:
            data = fh.read(4)
            fh.close()
        else:
            data = fh.read()
            fh.close()
        return data
    """,
]


@pytest.mark.parametrize("code", RPL320_PASSES)
def test_rpl320_passes(tmp_path, code):
    assert run(tmp_path, "resource-lifecycle", code) == []


def test_rpl320_pragma_suppression(tmp_path):
    found = run(tmp_path, "resource-lifecycle", """
        def keep_open(path):
            fh = open(path, "rb")  # reprolint: disable=RPL320
            magic = fh.read(4)
            return magic
    """)
    assert found == []
