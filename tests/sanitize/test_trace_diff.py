"""Trace serialization and diffing: round trips, the diff's causal
ordering (first diverging derivation/draw/write), the CLI exit codes,
the CLI's ``--sanitize-trace`` capture, and the
``check_sanitizer_trace`` contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import contracts
from repro.core.rng import stream
from repro.sanitize import (SanitizerLedger, diff_traces, enable_sanitize,
                            ledger, load_trace, write_trace)
from repro.sanitize.diff import main as diff_main


def _traced_run(tmp_path, name, seed, *, draws=3):
    """One miniature traced run: derive a stream, draw from it a few
    times, record one write, and serialize the ledger."""
    led = SanitizerLedger()
    key = led.record_derivation("stream", seed, (0,))
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    for _ in range(draws):
        values = gen.integers(0, 1 << 40, size=32)
        led.record_draw(key, "integers", values, None, "MainThread")
    led.record_write(f"{name}.adj6", 256, 0xBEEF)
    return write_trace(tmp_path / f"{name}.json", source=led)


# -- round trip --------------------------------------------------------


def test_write_and_load_round_trip(tmp_path):
    enable_sanitize(True)
    stream(5, 1).random(8)
    path = write_trace(tmp_path / "trace.json")
    doc = load_trace(path)
    snap = ledger().snapshot()
    assert doc["derivations"] == snap["derivations"]
    assert doc["draws"] == snap["draws"]
    assert doc["meta"]["pid"] == os.getpid()


def test_load_rejects_non_trace_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 99}))
    with pytest.raises(ValueError, match="version"):
        load_trace(bad)
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps({"version": 1, "derivations": []}))
    with pytest.raises(ValueError, match="draws"):
        load_trace(truncated)


# -- diffing -----------------------------------------------------------


def test_identical_runs_agree(tmp_path):
    a = load_trace(_traced_run(tmp_path, "run1", seed=7))
    b = load_trace(_traced_run(tmp_path, "run2", seed=7))
    assert diff_traces(a, b) is None  # file names differ; traces agree


def test_diff_pinpoints_first_diverging_derivation(tmp_path):
    a = load_trace(_traced_run(tmp_path, "a", seed=7))
    b = load_trace(_traced_run(tmp_path, "b", seed=8))
    divergence = diff_traces(a, b)
    assert divergence is not None
    assert divergence.category == "derivations"
    assert divergence.index == 0
    assert "stream:7:0" in divergence.render()
    assert "stream:8:0" in divergence.render()


def test_diff_pinpoints_first_diverging_draw(tmp_path):
    # Same derivations, but run B makes one extra draw in the middle —
    # the classic "an extra sample consumed the stream" bug.  The diff
    # must land on the draw where the CRCs first disagree, not on the
    # writes that diverge downstream of it.
    def run(name, extra_draw):
        led = SanitizerLedger()
        key = led.record_derivation("stream", 7, (0,))
        gen = np.random.default_rng(np.random.SeedSequence([7, 0]))
        for step in range(4):
            if step == 2 and extra_draw:
                led.record_draw(key, "integers", gen.integers(0, 9, 4),
                                None, "MainThread")
            led.record_draw(key, "integers",
                            gen.integers(0, 1 << 40, size=32),
                            None, "MainThread")
        led.record_write(f"{name}.adj6", 512, zlib_crc(name, extra_draw))
        return load_trace(write_trace(tmp_path / f"{name}.json",
                                      source=led))

    def zlib_crc(name, extra):
        return 111 if extra else 222  # writes diverge too, downstream

    a, b = run("a", False), run("b", True)
    divergence = diff_traces(a, b)
    assert divergence is not None
    assert divergence.category == "draws"
    assert divergence.index == 2
    assert "first diverging draw at #2" in divergence.render()


def test_diff_reports_truncated_trace(tmp_path):
    a = load_trace(_traced_run(tmp_path, "a", seed=7, draws=3))
    b = load_trace(_traced_run(tmp_path, "b", seed=7, draws=2))
    divergence = diff_traces(a, b)
    assert divergence is not None
    assert divergence.category == "draws"
    assert divergence.index == 2
    assert divergence.right is None
    assert "trace B ends" in divergence.render()


# -- CLI ---------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    same_a = _traced_run(tmp_path, "same_a", seed=3)
    same_b = _traced_run(tmp_path, "same_b", seed=3)
    other = _traced_run(tmp_path, "other", seed=4)

    assert diff_main([str(same_a), str(same_b)]) == 0
    assert "traces agree" in capsys.readouterr().out

    assert diff_main([str(same_a), str(other)]) == 1
    assert "first diverging derivation" in capsys.readouterr().out

    assert diff_main([str(same_a), str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_surfaces_recorded_violations(tmp_path, capsys):
    led = SanitizerLedger()
    led.record_derivation("stream", 1, (0,))
    led.record_derivation("stream", 1, (0,))
    path = write_trace(tmp_path / "dup.json", source=led)
    assert diff_main([str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert "duplicate-derivation" in out


def test_cli_sanitize_trace_flag_writes_trace(tmp_path):
    # --sanitize-trace captures a CLI run with TRILLIONG_SANITIZE unset.
    env = {k: v for k, v in os.environ.items()
           if k != "TRILLIONG_SANITIZE"}
    env["PYTHONPATH"] = "src"
    target = tmp_path / "trace.json"
    subprocess.run([sys.executable, "-m", "repro", "generate",
                    "--scale", "8", "--seed", "3",
                    "--output", str(tmp_path / "g.adj6"),
                    "--sanitize-trace", str(target)],
                   check=True, env=env, cwd=os.getcwd())
    doc = load_trace(target)
    assert doc["derivations"] and doc["draws"]
    assert {w["file"] for w in doc["writes"]} == {"g.adj6"}


# -- contracts ---------------------------------------------------------


@pytest.fixture
def contracts_on():
    contracts.enable_contracts(True)
    yield
    contracts.enable_contracts(None)


def test_contract_passes_on_real_trace(tmp_path, contracts_on):
    doc = load_trace(_traced_run(tmp_path, "ok", seed=5))
    contracts.check_sanitizer_trace(doc)


def test_contract_flags_write_order_hole(tmp_path, contracts_on):
    doc = load_trace(_traced_run(tmp_path, "holey", seed=5))
    doc["writes"][0]["file_seq"] = 4  # hole: block 0..3 never landed
    with pytest.raises(contracts.ContractViolation, match="order"):
        contracts.check_sanitizer_trace(doc)


def test_contract_flags_non_monotonic_seq(tmp_path, contracts_on):
    doc = load_trace(_traced_run(tmp_path, "shuffled", seed=5))
    doc["draws"].reverse()
    with pytest.raises(contracts.ContractViolation):
        contracts.check_sanitizer_trace(doc)
