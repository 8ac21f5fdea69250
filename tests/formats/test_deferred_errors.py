"""Deferred pipeline I/O errors: an exception raised by the background
writer thread must re-raise (with its original type) out of the format
writer's ``close()``, the file handle must be released anyway, and the
distributed worker must not leave a ``.partial`` temporary behind."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Recipe, RecursiveVectorGenerator
from repro.dist.runner import _worker_generate
from repro.formats import ThreadedSink, get_format
from repro.formats.base import (_REGISTRY, GraphFormat, StreamWriter,
                                register_format)


class FlakyFile:
    """Delegating file wrapper whose ``write`` fails after N calls."""

    def __init__(self, inner, fail_after: int = 0) -> None:
        self._inner = inner
        self._fail_after = fail_after
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > self._fail_after:
            raise OSError("disk full (injected)")
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def make_block_stream(scale=8):
    gen = RecursiveVectorGenerator(scale, 4, seed=2, block_size=64)
    return gen.iter_blocks(), gen.num_vertices


def inject_flaky_sink(writer, fail_after=0):
    """Swap the writer's sink for one over a failing file.  The real
    handle stays what ``_finalize`` must close."""
    writer._sink.close()
    real = writer._file
    writer._file = FlakyFile(real, fail_after)
    writer._sink = ThreadedSink(writer._file, depth=1)
    return real


@pytest.mark.parametrize("fmt_name", ["adj6", "tsv", "csr6"])
def test_deferred_error_reraises_on_close(fmt_name, tmp_path):
    blocks, num_vertices = make_block_stream()
    writer = get_format(fmt_name).open_writer(tmp_path / "g.out",
                                              num_vertices)
    real = inject_flaky_sink(writer)
    writer.add_block(next(iter(blocks)))
    with pytest.raises(OSError, match="injected"):
        writer.close()
    assert real.closed, "file handle leaked after deferred error"
    assert writer.result is None


@pytest.mark.parametrize("fmt_name", ["adj6", "tsv", "csr6"])
def test_deferred_error_reraises_mid_stream(fmt_name, tmp_path):
    # With more blocks than queue depth the error surfaces on a later
    # write() instead of close(); either way it must not deadlock and
    # must keep its original type.
    blocks, num_vertices = make_block_stream()
    writer = get_format(fmt_name).open_writer(tmp_path / "g.out",
                                              num_vertices)
    real = inject_flaky_sink(writer)
    with pytest.raises(OSError, match="injected"):
        for block in blocks:
            writer.add_block(block)
        writer.close()
    writer._sink.close()
    real.close()


class _BoomWriter(StreamWriter):
    def __init__(self, path, num_vertices):
        super().__init__(path, num_vertices)
        self.path.write_bytes(b"partial bytes on disk")

    def add(self, vertex, neighbours):
        raise OSError("boom (injected)")

    def add_block(self, block):
        raise OSError("boom (injected)")

    def _finalize(self):
        raise OSError("boom (injected)")


class _BoomFormat(GraphFormat):
    name = "boomfmt"

    def open_writer(self, path, num_vertices):
        return _BoomWriter(path, num_vertices)

    def read_blocks(self, path):
        return iter(())


@pytest.fixture
def boom_format():
    register_format(_BoomFormat())
    yield "boomfmt"
    _REGISTRY.pop("boomfmt", None)


def test_failed_worker_write_leaves_no_partial(tmp_path, boom_format):
    final = tmp_path / "chunk-000000.adj6"
    args = (0, 0, 16,
            Recipe(6, 2, seed=1), boom_format, str(final), None)
    with pytest.raises(OSError, match="injected"):
        _worker_generate(args)
    assert not final.exists(), "failed chunk must not be adopted"
    assert list(tmp_path.glob("*.partial*")) == [], \
        "failed chunk left a .partial temporary"


def test_successful_worker_write_cleans_temporaries(tmp_path):
    final = tmp_path / "chunk-000000.adj6"
    args = (0, 0, 16,
            Recipe(6, 2, seed=1), "adj6", str(final), None)
    result = _worker_generate(args)
    assert final.exists()
    assert list(tmp_path.glob("*.partial*")) == []
    assert result.num_edges > 0
    edges = get_format("adj6").read_edges(final)
    assert np.all(edges[:, 0] < 16)
