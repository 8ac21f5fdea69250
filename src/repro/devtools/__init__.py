"""``reprolint`` — project-specific static analysis for the TrillionG repo.

The Python type system cannot see the invariants this codebase lives and
dies by: every random draw must flow through the ``SeedSequence``-keyed
streams of :mod:`repro.core.rng` (or graphs stop being bit-reproducible
across worker partitionings), seed-matrix probabilities must stay
normalized through the RecVec/NSKG arithmetic, and threads must hand
state over under a lock.  ``reprolint`` machine-checks those invariants
on every commit.  (Durable writes need no rule: the one rename in
``src/repro`` lives in :mod:`repro.atomic`, and a test pins that.)

One pass per file (:func:`~repro.devtools.framework.lint_paths`):
parse, run the syntactic checkers of :mod:`~repro.devtools.checkers`,
filter by pragma, then sweep the file's dead pragmas.

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
