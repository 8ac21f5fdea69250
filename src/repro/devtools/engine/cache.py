"""Incremental result cache for the reprolint engine.

Per-file results are keyed on a content hash **and** a canonical config
fingerprint **and** the engine version, so editing a file, changing
policy, or upgrading a checker each invalidate exactly what they must.
The cached entry carries the file's violations, its recorded pragma
suppressions, and its :class:`ModuleSummary` — a warm run rebuilds the
whole-program model without re-parsing a single unchanged file.

The project pass caches separately under a *project signature*: a hash
of every file's summary, suppression record, and per-file config.  A
change to one file's body that does not alter its interface leaves the
signature intact, so the project checkers' results are reused; touching
an import invalidates it.  ``--no-cache`` bypasses everything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any

from ..framework import LintConfig

__all__ = ["ENGINE_VERSION", "LintCache", "config_fingerprint", "file_key"]

#: Bump on any change to checker logic or cached-entry layout: every
#: cached result becomes stale at once.
ENGINE_VERSION = "2.3.0"

_CACHE_NAME = "reprolint-cache.json"


def _canonical(value: Any) -> Any:
    """Hash-stable form: sets sorted, tuples listed, dicts ordered."""
    if isinstance(value, frozenset):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, (set,)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


def config_fingerprint(config: LintConfig) -> str:
    """Canonical digest of a config — independent of hash seed and of
    field declaration order."""
    doc = {f.name: _canonical(getattr(config, f.name))
           for f in dataclasses.fields(config)}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def file_key(path: Path, content: bytes, config_fp: str,
             selection: str) -> str:
    """Cache key for one file's results."""
    digest = hashlib.sha256()
    for part in (ENGINE_VERSION, str(path), config_fp, selection):
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    digest.update(content)
    return digest.hexdigest()


class LintCache:
    """A single-JSON-file cache living under ``cache_dir``.

    Entries not touched during a run are pruned on save, so the file
    tracks the current tree instead of growing without bound.
    """

    def __init__(self, cache_dir: Path | str) -> None:
        self.dir = Path(cache_dir)
        self.path = self.dir / _CACHE_NAME
        self._entries: dict[str, dict[str, Any]] = {}
        self._project: dict[str, Any] | None = None
        self._touched: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.project_hit = False
        self._load()

    def _load(self) -> None:
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(doc, dict) or doc.get("engine") != ENGINE_VERSION:
            return
        entries = doc.get("entries")
        if isinstance(entries, dict):
            self._entries = entries
        project = doc.get("project")
        if isinstance(project, dict):
            self._project = project

    # file entries -----------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._touched.add(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def put(self, key: str, entry: dict[str, Any]) -> None:
        self._entries[key] = entry
        self._touched.add(key)

    # the project pass -------------------------------------------------

    def get_project(self, signature: str) -> list[dict[str, Any]] | None:
        if (self._project is not None
                and self._project.get("signature") == signature):
            self.project_hit = True
            return list(self._project.get("violations", []))
        return None

    def put_project(self, signature: str,
                    violations: list[dict[str, Any]]) -> None:
        self._project = {"signature": signature, "violations": violations}

    # persistence ------------------------------------------------------

    def save(self) -> None:
        doc = {
            "engine": ENGINE_VERSION,
            "entries": {k: v for k, v in self._entries.items()
                        if k in self._touched},
            "project": self._project,
        }
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".json.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, separators=(",", ":"))
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)
