"""Checkpointed (resumable) generation to disk.

A trillion-scale run takes hours (Figure 12); losing it to a crash at 95%
is expensive.  Because the AVS generator's randomness is keyed per block,
generation is naturally restartable at block granularity: this module
writes one chunk file per group of blocks plus a JSON manifest recording
which chunks are complete, and a resumed run regenerates only the missing
chunks — producing bit-identical output to an uninterrupted run.

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
  swept on resume;
- an unparsable manifest (torn write on a non-atomic filesystem) is
  rebuilt by verifying the chunk files on disk rather than aborting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..atomic import atomic_write
from ..core.generator import RecursiveVectorGenerator
from ..errors import ConfigurationError, FormatError
from ..formats import get_format
from ..telemetry import get_logger, registry, span

_log = get_logger("dist.checkpoint")

__all__ = ["CheckpointedRun", "CheckpointState"]

_MANIFEST = "manifest.json"


def _run_spec(generator: RecursiveVectorGenerator) -> dict:
    """The generator's :meth:`~RecursiveVectorGenerator.recipe` as JSON:
    the graph a checkpoint directory holds."""
    spec = generator.recipe()
    spec["seed_matrix"] = spec["seed_matrix"].entries.tolist()
    return spec


@dataclass
class CheckpointState:
    """Parsed manifest contents."""

    generator: dict  # _run_spec() of the generator that wrote the chunks
    fmt: str
    blocks_per_chunk: int
    completed: dict[str, int] = field(default_factory=dict)
    # chunk name -> edge count

    def to_json(self) -> dict:
        return {
            "generator": self.generator,
            "format": self.fmt,
            "blocks_per_chunk": self.blocks_per_chunk,
            "completed": self.completed,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CheckpointState":
        # A manifest that records no recipe (an older layout) matches no
        # generator, so a resume refuses it instead of adopting chunks.
        return cls(dict(doc.get("generator", {})), doc["format"],
                   doc["blocks_per_chunk"], dict(doc["completed"]))

    def differences(self, other: "CheckpointState") -> list[str]:
        """Names of the settings in which ``other`` describes another
        output: recipe keys, ``format`` and ``blocks_per_chunk``."""
        names = sorted(self.generator.keys() | other.generator.keys())
        diff = [name for name in names
                if self.generator.get(name) != other.generator.get(name)]
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
    >>> run.run()             # later: regenerates only missing chunks
    """

    def __init__(self, generator: RecursiveVectorGenerator,
                 out_dir: Path | str, fmt: str = "adj6",
                 blocks_per_chunk: int = 16) -> None:
        if blocks_per_chunk < 1:
            raise ConfigurationError("blocks_per_chunk must be >= 1")
        # Before anything touches the disk: a generator without a recipe
        # (the in-process oracle) is refused here.
        self._spec = _run_spec(generator)
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
        return CheckpointState(self._spec, self.fmt, self.blocks_per_chunk)

    def _load_or_init(self) -> CheckpointState:
        if not self.manifest_path.exists():
            return self._expected_state()
        try:
            doc = json.loads(self.manifest_path.read_text())
            state = CheckpointState.from_json(doc)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # Torn manifest (e.g. power loss on a non-atomic filesystem):
            # re-init; _recover() adopts every chunk file that verifies.
            return self._expected_state()
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
                edges = fmt.read_edges(path)
            except (FormatError, OSError, ValueError):
                path.unlink(missing_ok=True)     # corrupt: regenerate
                continue
            self.state.completed[name] = int(edges.shape[0])
            registry().counter("checkpoint.chunks_adopted").inc()
            _log.info("adopted completed chunk %s (%d edges)", name,
                      int(edges.shape[0]))
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
        return [(name, lo, hi) for name, lo, hi in self.chunk_ranges()
                if name not in self.state.completed]

    @property
    def complete(self) -> bool:
        return not self.pending()

    def mark_complete(self, name: str, num_edges: int) -> None:
        """Record an externally-generated chunk (the parallel supervisor
        calls this as each worker's chunk lands) and persist the
        manifest."""
        self.state.completed[name] = num_edges
        registry().counter("checkpoint.chunks_completed").inc()
        self._save()

    def run(self, max_chunks: int | None = None) -> int:
        """Generate up to ``max_chunks`` pending chunks (all by default).

        Returns the number of chunks produced in this call.  Each chunk is
        written to a temporary file, fsynced, and renamed only when
        complete, then the manifest is updated — a crash mid-chunk leaves
        only whole chunks visible, and a crash between the rename and the
        manifest update is healed by adoption on the next resume.
        """
        fmt = get_format(self.fmt)
        done = 0
        for name, lo, hi in self.pending():
            if max_chunks is not None and done >= max_chunks:
                break
            with span("checkpoint.chunk"):
                with atomic_write(self.out_dir / name) as tmp:
                    result = fmt.write_blocks(
                        tmp, self.generator.iter_blocks(lo, hi),
                        self.generator.num_vertices)
                self.mark_complete(name, result.num_edges)
            done += 1
        return done

    @property
    def num_edges(self) -> int:
        return sum(self.state.completed.values())

    def chunk_paths(self) -> list[Path]:
        """Paths of completed chunks, in vertex order."""
        return [self.out_dir / name
                for name, _, _ in self.chunk_ranges()
                if name in self.state.completed]
