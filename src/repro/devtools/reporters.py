"""Render ``reprolint`` findings as human text or machine JSON."""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, Sequence

from .framework import Violation

__all__ = ["text_report", "json_report", "summary_counts"]


def summary_counts(violations: Iterable[Violation]) -> dict[str, int]:
    """Number of findings per checker name, sorted by count then name."""
    counts = Counter(v.name for v in violations)
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def text_report(violations: Sequence[Violation], files_checked: int) -> str:
    """One finding per line plus a per-checker summary footer."""
    lines = [v.render() for v in violations]
    if violations:
        lines.append("")
        for name, count in summary_counts(violations).items():
            lines.append(f"{count:5d}  {name}")
        lines.append(f"reprolint: {len(violations)} finding(s) in "
                     f"{files_checked} file(s)")
    else:
        lines.append(f"reprolint: clean ({files_checked} file(s))")
    return "\n".join(lines)


def json_report(violations: Sequence[Violation], files_checked: int) -> str:
    """Stable JSON document for CI annotation tooling."""
    doc = {
        "tool": "reprolint",
        "files_checked": files_checked,
        "summary": summary_counts(violations),
        "violations": [v.to_dict() for v in violations],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
