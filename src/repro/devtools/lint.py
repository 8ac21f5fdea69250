"""``reprolint`` command line: ``python -m repro.devtools.lint`` or the
``trilliong-lint`` console script.

Exit codes: 0 clean, 1 findings, 2 usage / unreadable / unparseable
input, 3 internal engine error (a crash in the analysis itself, never
a property of the linted code).

Every file is linted in one pass — the checkers, then the dead-pragma
sweep — and files under ``tests``/``benchmarks``/``examples`` get the
relaxed policy.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import Sequence

from .framework import all_checkers, lint_paths
from .reporters import json_report, text_report

__all__ = ["main", "build_parser", "default_target"]


def default_target() -> Path:
    """The installed ``repro`` package directory (lint it by default)."""
    return Path(__file__).resolve().parent.parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilliong-lint",
        description="Project-specific static analysis for the TrillionG "
                    "reproduction: RNG determinism, layering, numerical "
                    "safety, exception hygiene, API completeness, "
                    "telemetry, mutable defaults, thread-shared state, "
                    "spawn hygiene and dead pragmas. Exit codes: 0 clean, 1 findings, "
                    "2 bad input, 3 internal engine error.")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: the installed repro package)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--select", metavar="NAMES",
                        help="comma-separated checker names to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="NAMES",
                        help="comma-separated checker names to skip")
    parser.add_argument("--list-checkers", action="store_true",
                        help="list registered checkers and exit")
    return parser


def _split(arg: str | None) -> list[str] | None:
    if arg is None:
        return None
    return [part.strip() for part in arg.split(",") if part.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_checkers:
        for name, cls in sorted(all_checkers().items()):
            print(f"{name:30s} {', '.join(sorted(cls.codes))}")
        return 0

    try:
        violations, files_checked = lint_paths(
            args.paths or [default_target()],
            enabled=_split(args.select), disabled=_split(args.ignore))
    except (FileNotFoundError, KeyError) as exc:
        print(f"trilliong-lint: error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"trilliong-lint: syntax error: {exc}", file=sys.stderr)
        return 2
    # An engine crash must exit 3 regardless of which exception type
    # escaped — hence the blanket catch.
    except Exception:  # reprolint: disable=RPL402
        print("trilliong-lint: internal engine error", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3

    report = json_report if args.format == "json" else text_report
    print(report(violations, files_checked))
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
