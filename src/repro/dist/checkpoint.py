"""Checkpointed (resumable) generation to disk.

A trillion-scale run takes hours (Figure 12); losing it to a crash at 95%
is expensive.  Because the AVS generator's randomness is keyed per block,
generation is naturally restartable at block granularity: this module
writes one chunk file per group of blocks plus a JSON manifest recording
which chunks are complete, and a resumed run regenerates only the missing
chunks — producing bit-identical output to an uninterrupted run.  The
chunks are written like the cluster's part files, by
:func:`repro.dist.runner.scatter`: in-process, or over worker processes
under the retry supervisor.

Crash-safety guarantees (see ``docs/fault_tolerance.md``):

- chunks and the manifest are published by
  :func:`repro.atomic.atomic_write` (a fully-written, fsynced
  ``*.partial.<pid>`` temporary renamed into place), so a crash or power
  loss never surfaces a torn chunk or a truncated ``manifest.json``;
- on resume, completed chunk files missing from the manifest (a kill in
  the rename -> manifest window, or a parallel supervisor killed after a
  worker renamed) are *adopted* after verifying they parse, instead of
  being regenerated;
- stale ``*.partial*`` temporaries, of chunks and of the manifest, are
  swept on resume (a finished scatter already deleted those its killed
  attempts left);
- an unparsable manifest (torn write on a non-atomic filesystem) is
  rebuilt by verifying the chunk files on disk rather than aborting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..atomic import atomic_write
from ..core.generator import Recipe, RecursiveVectorGenerator
from ..errors import ConfigurationError, FormatError
from ..formats import get_format
from ..telemetry import get_logger, registry
from .faults import RetryPolicy
from .runner import DistributedResult, WorkerResult, scatter

_log = get_logger("dist.checkpoint")

__all__ = ["CheckpointedRun", "CheckpointState"]

_MANIFEST = "manifest.json"


@dataclass
class CheckpointState:
    """Parsed manifest contents."""

    generator: Recipe   # the graph the chunks hold
    fmt: str
    blocks_per_chunk: int
    completed: dict[str, int] = field(default_factory=dict)
    # chunk name -> edge count

    def to_json(self) -> dict:
        # Chunk order, not the order chunks landed in, so that one
        # configuration writes one manifest.  Chunk names differ only in
        # a zero-padded index: a longer name is a later chunk.
        completed = sorted(self.completed.items(),
                           key=lambda item: (len(item[0]), item[0]))
        return {
            "generator": self.generator.to_json(),
            "format": self.fmt,
            "blocks_per_chunk": self.blocks_per_chunk,
            "completed": dict(completed),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CheckpointState":
        """The state :meth:`to_json` wrote; a ``KeyError`` names the
        entry ``doc`` lacks, or ``generator`` if that is no recipe."""
        spec = doc["generator"]
        try:
            recipe = Recipe.from_json(spec)
        except (KeyError, TypeError, ValueError) as err:
            raise KeyError("generator") from err
        return cls(recipe, doc["format"], doc["blocks_per_chunk"],
                   dict(doc["completed"]))

    def differences(self, other: "CheckpointState") -> list[str]:
        """Names of the settings in which ``other`` describes another
        output: recipe fields as JSON, ``format``, ``blocks_per_chunk``."""
        mine, theirs = self.generator.to_json(), other.generator.to_json()
        diff = [name for name in mine if mine[name] != theirs[name]]
        if self.fmt != other.fmt:
            diff.append("format")
        if self.blocks_per_chunk != other.blocks_per_chunk:
            diff.append("blocks_per_chunk")
        return diff


class CheckpointedRun:
    """Resumable generation of one graph into a directory of chunks.

    Examples
    --------
    >>> run = CheckpointedRun(generator, "out/", fmt="adj6",
    ...                       blocks_per_chunk=8)         # doctest: +SKIP
    >>> run.run()             # may be interrupted at any point
    >>> run.run(processes=4)  # later: regenerates only missing chunks
    """

    def __init__(self, generator: RecursiveVectorGenerator,
                 out_dir: Path | str, fmt: str = "adj6",
                 blocks_per_chunk: int = 16) -> None:
        if blocks_per_chunk < 1:
            raise ConfigurationError("blocks_per_chunk must be >= 1")
        # Before anything touches the disk: a generator without a recipe
        # (the in-process oracle) is refused here.
        self._recipe = generator.recipe()
        self.generator = generator
        self.out_dir = Path(out_dir)
        self.fmt = fmt
        self.blocks_per_chunk = blocks_per_chunk
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.state = self._load_or_init()
        self._recover()

    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.out_dir / _MANIFEST

    def _expected_state(self) -> CheckpointState:
        return CheckpointState(self._recipe, self.fmt, self.blocks_per_chunk)

    def _load_or_init(self) -> CheckpointState:
        if not self.manifest_path.exists():
            return self._expected_state()
        try:
            state = CheckpointState.from_json(
                json.loads(self.manifest_path.read_text()))
        except KeyError as err:
            # Another layout (e.g. one that recorded no recipe) matches
            # no run: refuse it, naming the entry, and adopt no chunk.
            mismatch = [err.args[0]]
        except (TypeError, ValueError):
            # Torn manifest (e.g. power loss on a non-atomic filesystem):
            # re-init; _recover() adopts every chunk file that verifies.
            return self._expected_state()
        else:
            mismatch = state.differences(self._expected_state())
        if mismatch:
            raise ConfigurationError(
                f"{self.manifest_path} belongs to a different "
                f"configuration ({', '.join(mismatch)} differ); refusing "
                "to mix outputs")
        return state

    def _recover(self) -> None:
        """Close the crash windows left by a killed run: sweep stale
        temporaries, adopt completed-but-unrecorded chunks (verifying
        they parse), and drop unreadable strays for regeneration."""
        for stray in self.out_dir.glob("*.partial*"):
            stray.unlink(missing_ok=True)
        fmt = get_format(self.fmt)
        adopted = False
        for name, _, _ in self.chunk_ranges():
            if name in self.state.completed:
                continue
            path = self.out_dir / name
            if not path.exists():
                continue
            try:
                edges = sum(block.num_edges
                            for block in fmt.read_blocks(path))
            except (FormatError, OSError, ValueError):
                path.unlink(missing_ok=True)     # corrupt: regenerate
                continue
            self.state.completed[name] = edges
            registry().counter("checkpoint.chunks_adopted").inc()
            _log.info("adopted completed chunk %s (%d edges)", name, edges)
            adopted = True
        if adopted:
            self._save()

    def _save(self) -> None:
        with atomic_write(self.manifest_path) as tmp:
            tmp.write_text(json.dumps(self.state.to_json(), indent=2),
                           encoding="utf-8")

    # ------------------------------------------------------------------

    def chunk_ranges(self) -> list[tuple[str, int, int]]:
        """(name, start_vertex, stop_vertex) for every chunk."""
        g = self.generator
        vertices_per_chunk = g.block_size * self.blocks_per_chunk
        out = []
        start = 0
        index = 0
        while start < g.num_vertices:
            stop = min(start + vertices_per_chunk, g.num_vertices)
            out.append((f"chunk-{index:06d}.{self.fmt}", start, stop))
            start = stop
            index += 1
        return out

    def pending(self) -> list[tuple[str, int, int]]:
        """Chunks not yet completed."""
        return [(name, lo, hi) for _, lo, hi, name in self.jobs()]

    @property
    def complete(self) -> bool:
        return not self.pending()

    def jobs(self) -> list[tuple[int, int, int, str]]:
        """The pending chunks as :func:`~repro.dist.runner.scatter` jobs
        ``(index, start, stop, name)``."""
        return [(index, lo, hi, name)
                for index, (name, lo, hi) in enumerate(self.chunk_ranges())
                if name not in self.state.completed]

    def done(self) -> list[WorkerResult]:
        """The completed chunks, as the results of workers that took no
        time in this run."""
        return [WorkerResult(index, lo, hi, self.state.completed[name],
                             str(self.out_dir / name), 0.0)
                for index, (name, lo, hi) in enumerate(self.chunk_ranges())
                if name in self.state.completed]

    def record(self, result: WorkerResult) -> None:
        """Enter a chunk that a scatter of :meth:`jobs` published in
        the manifest."""
        self.state.completed[Path(result.path).name] = result.num_edges
        registry().counter("checkpoint.chunks_completed").inc()
        self._save()

    def run(self, processes: int = 1, *,
            retry: RetryPolicy | None = None,
            progress: Callable[[int], None] | None = None
            ) -> DistributedResult:
        """Generate every pending chunk, over at most ``processes``
        worker processes (in-process at 1).

        Each chunk is published whole by its worker, then recorded in
        the manifest — a crash mid-chunk leaves only whole chunks
        visible, and a crash between the rename and the manifest update
        is healed by adoption on the next resume.  ``progress`` is called
        once with the edges of the chunks earlier runs completed, before
        any is written, then with those of every completed chunk, this
        run's and earlier ones', as each chunk lands.  Returns the
        :class:`~repro.dist.runner.DistributedResult` of the chunks
        written by this call.
        """
        def landed(position: int, result: WorkerResult) -> None:
            self.record(result)
            if progress is not None:
                progress(self.num_edges)

        if progress is not None:
            progress(self.num_edges)
        return scatter(self.generator, self.out_dir, self.jobs(), self.fmt,
                       processes, retry, landed)

    @property
    def num_edges(self) -> int:
        return sum(self.state.completed.values())

    def chunk_paths(self) -> list[Path]:
        """Paths of completed chunks, in vertex order."""
        return [Path(chunk.path) for chunk in self.done()]
