"""``reprolint`` — project-specific static analysis for the TrillionG repo.

The Python type system cannot see the invariants this codebase lives and
dies by: every random draw must flow through the ``SeedSequence``-keyed
streams of :mod:`repro.core.rng` (or graphs stop being bit-reproducible
across worker partitionings), seed-matrix probabilities must stay
normalized through the RecVec/NSKG arithmetic, durable files must be
written atomically, and threads must hand state over under a lock.
``reprolint`` machine-checks those invariants on every commit.

One pass per file (:func:`~repro.devtools.framework.lint_paths`):
parse, run the checkers — the syntactic ones
(:mod:`~repro.devtools.checkers`) and the CFG/dataflow ones
(:mod:`~repro.devtools.engine`) — filter by pragma, then sweep the
file's dead pragmas.

Reporters live in :mod:`~repro.devtools.reporters`; the CLI is
``python -m repro.devtools.lint`` / ``trilliong-lint``.  See
``docs/static_analysis.md`` for the rule catalogue and pragma syntax.
"""

from .framework import (Checker, LintConfig, SourceFile, Violation,
                        all_checkers, lint_paths, register_checker,
                        relaxed_profile)

__all__ = [
    "Checker",
    "LintConfig",
    "SourceFile",
    "Violation",
    "all_checkers",
    "lint_paths",
    "register_checker",
    "relaxed_profile",
]
