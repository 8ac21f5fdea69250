"""The sanitizer ledger: derivation/draw/write recording, live
violation detection (duplicate derivations, cross-thread draws), the
rng hooks, write-order capture through the pipeline sinks, and the
off-mode guarantees (no proxies, byte-identical output)."""

from __future__ import annotations

import threading

import numpy as np

from repro.core.generator import RecursiveVectorGenerator
from repro.core.rng import spawn_streams, stream
from repro.formats import get_format
from repro.sanitize import (GeneratorProxy, SanitizerLedger,
                            enable_sanitize, ledger, sanitize_enabled,
                            stream_key)


def _codes(led):
    return [v["code"] for v in led.violations]


# -- switches ----------------------------------------------------------


def test_override_beats_environment(monkeypatch):
    monkeypatch.delenv("TRILLIONG_SANITIZE", raising=False)
    assert not sanitize_enabled()
    enable_sanitize(True)
    assert sanitize_enabled()
    enable_sanitize(None)
    monkeypatch.setenv("TRILLIONG_SANITIZE", "1")
    assert sanitize_enabled()


def test_off_mode_returns_raw_generator():
    enable_sanitize(False)
    gen = stream(3, 1)
    assert isinstance(gen, np.random.Generator)
    assert ledger().derivations == []


# -- derivations and duplicate detection -------------------------------


def test_stream_derivations_are_recorded():
    enable_sanitize(True)
    stream(5, 0)
    stream(5, 1)
    led = ledger()
    assert [d["key"] for d in led.derivations] == [
        stream_key("stream", 5, (0,)), stream_key("stream", 5, (1,))]
    assert _codes(led) == []


def test_duplicate_derivation_is_flagged():
    enable_sanitize(True)
    stream(5, 0, 2)
    stream(5, 0, 2)
    led = ledger()
    assert _codes(led) == ["duplicate-derivation"]
    assert stream_key("stream", 5, (0, 2)) in led.violations[0]["message"]


def test_spawn_and_stream_keys_are_disjoint():
    # spawn_streams children use spawn-key derivation, not the stream
    # label path — the ledger keys them under a different kind so the
    # two schemes never collide as "duplicates".
    enable_sanitize(True)
    spawn_streams(5, 2)
    stream(5, 0)
    stream(5, 1)
    led = ledger()
    kinds = {d["kind"] for d in led.derivations}
    assert kinds == {"spawn", "stream"}
    assert _codes(led) == []


# -- draws -------------------------------------------------------------


def test_draws_are_recorded_with_fingerprints():
    enable_sanitize(True)
    gen = stream(7, 1)
    a = gen.integers(0, 100, size=8)
    gen.random(4)
    led = ledger()
    assert [d["method"] for d in led.draws] == ["integers", "random"]
    assert led.draws[0]["crc"] == __import__("zlib").crc32(a.tobytes())


def test_same_seed_draws_have_same_fingerprint():
    enable_sanitize(True)
    first = stream(11, 3).integers(0, 1 << 40, size=64)
    second = stream(11, 3).integers(0, 1 << 40, size=64)
    led = ledger()
    np.testing.assert_array_equal(first, second)
    assert led.draws[0]["crc"] == led.draws[1]["crc"]
    # the re-derivation itself is the (intended) duplicate violation
    assert _codes(led) == ["duplicate-derivation"]


def test_draw_into_buffer_has_the_fingerprint_of_a_fresh_draw():
    """The kernel draws with ``random(out=buf)`` into a reused buffer; the
    ledger must see it as the draw ``random(n)`` is."""
    enable_sanitize(True)
    fresh = stream(11, 4).random(64)
    buf = np.empty(64)
    filled = stream(11, 4).random(out=buf)
    led = ledger()
    assert filled is buf
    np.testing.assert_array_equal(fresh, buf)
    assert [d["method"] for d in led.draws] == ["random", "random"]
    assert led.draws[0]["crc"] == led.draws[1]["crc"]


def test_cross_thread_draw_is_flagged():
    enable_sanitize(True)
    gen = stream(9, 0)
    done = threading.Event()

    def drain():
        gen.random(4)
        done.set()

    worker = threading.Thread(target=drain, name="test-drainer")
    worker.start()
    worker.join()
    assert done.is_set()
    led = ledger()
    assert "cross-thread-draw" in _codes(led)
    assert "test-drainer" in "".join(v["message"] for v in led.violations)


def test_proxy_forwards_non_draw_attributes():
    enable_sanitize(True)
    gen = stream(2)
    assert gen.bit_generator is not None
    assert repr(gen).startswith("GeneratorProxy(")
    assert ledger().draws == []  # attribute access is not a draw


# -- ledger bounding ---------------------------------------------------


def test_ledger_bounds_events_and_counts_drops():
    led = SanitizerLedger(max_events=3)
    for i in range(5):
        led.record_derivation("stream", 0, (i,))
    assert len(led.derivations) == 3
    assert led.dropped["derivations"] == 2
    snap = led.snapshot()
    assert snap["dropped"]["derivations"] == 2


def test_write_sequences_are_per_file():
    led = SanitizerLedger()
    led.record_write("a.adj6", 10, 1)
    led.record_write("b.adj6", 20, 2)
    led.record_write("a.adj6", 30, 3)
    seqs = [(w["file"], w["file_seq"]) for w in led.writes]
    assert seqs == [("a.adj6", 0), ("b.adj6", 0), ("a.adj6", 1)]


# -- pipeline write-order capture --------------------------------------


def test_block_write_order_is_recorded(tmp_path, monkeypatch):
    from repro.formats import pipeline
    monkeypatch.setattr(pipeline, "DEFAULT_PIPELINE_DEPTH", 1)
    enable_sanitize(True)
    gen = RecursiveVectorGenerator(9, 4, seed=1)
    fmt = get_format("adj6")
    fmt.write_blocks(tmp_path / "g.adj6", gen.iter_blocks(),
                     gen.num_vertices)
    led = ledger()
    writes = [w for w in led.writes if w["file"] == "g.adj6"]
    assert writes, "no writes recorded through the pipeline sink"
    assert [w["file_seq"] for w in writes] == list(range(len(writes)))
    from repro import contracts
    contracts.enable_contracts(True)
    try:
        contracts.check_sanitizer_trace(led.snapshot())
    finally:
        contracts.enable_contracts(None)


# -- off/on byte identity ----------------------------------------------


def test_output_bytes_identical_with_sanitizer_on(tmp_path):
    def generate(label, on):
        enable_sanitize(on)
        gen = RecursiveVectorGenerator(9, 4, seed=3)
        fmt = get_format("adj6")
        fmt.write_blocks(tmp_path / label, gen.iter_blocks(),
                         gen.num_vertices)
        return (tmp_path / label).read_bytes()

    assert generate("off.adj6", False) == generate("on.adj6", True)


def test_proxy_draws_match_raw_generator():
    raw = np.random.default_rng(np.random.SeedSequence([4, 1]))
    led = SanitizerLedger()
    proxy = GeneratorProxy(
        np.random.default_rng(np.random.SeedSequence([4, 1])),
        "stream:4:1", led)
    np.testing.assert_array_equal(raw.integers(0, 1 << 30, size=32),
                                  proxy.integers(0, 1 << 30, size=32))
    np.testing.assert_array_equal(raw.random(16), proxy.random(16))
    assert len(led.draws) == 2
