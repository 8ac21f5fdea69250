"""Deterministic random-stream management.

Every generator in this library is seeded.  Scopes (and distributed
workers) get independent streams derived from ``(seed, label...)`` via
:class:`numpy.random.SeedSequence`, which guarantees:

- the same ``seed`` reproduces the same graph bit-for-bit,
- results do not depend on how scopes are partitioned across workers
  (each scope's stream is keyed by the scope id, not the worker id),
- streams are statistically independent.

Key shapes
----------
:func:`stream` and :func:`derive_seed` key their ``SeedSequence`` as the
entropy list ``[seed, *labels]`` — the label path *is* the key.
:func:`spawn_streams` uses a **different** shape: children come from
``SeedSequence([seed]).spawn(count)``, which keys each child by numpy's
internal ``spawn_key`` mechanism, *not* by appending the child index to
the entropy list.  Consequently ``spawn_streams(seed, n)[i]`` and
``stream(seed, i)`` are unrelated streams; the two families are
disjoint by construction and must never be substituted for one another.
The golden-digest tests in ``tests/core/test_rng_golden.py`` freeze
both schemes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream", "spawn_streams", "derive_seed"]


def stream(seed: int, *labels: int) -> np.random.Generator:
    """Return an independent generator keyed by ``seed`` and label path.

    ``stream(seed, scope_id)`` is the per-scope stream used during edge
    generation; ``stream(seed)`` is the root stream.  The underlying
    key is ``SeedSequence([seed, *labels])`` — see the module docstring
    for how this differs from :func:`spawn_streams`.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, *labels]))


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent child streams from ``seed``.

    Children are keyed by ``SeedSequence([seed])`` plus numpy's
    ``spawn_key`` — a different key shape from :func:`stream`, so
    ``spawn_streams(seed, n)[i]`` is **not** ``stream(seed, i)``.
    """
    children = np.random.SeedSequence([seed]).spawn(count)
    return [np.random.default_rng(child) for child in children]


def derive_seed(seed: int, *labels: int) -> int:
    """Derive a 63-bit integer sub-seed, for handing to a subprocess.

    Keyed exactly like :func:`stream` (``SeedSequence([seed, *labels])``)
    so a worker re-deriving streams from the sub-seed stays on the same
    entropy tree.
    """
    seq = np.random.SeedSequence([seed, *labels])
    return int(seq.generate_state(1, np.uint64)[0] >> np.uint64(1))
