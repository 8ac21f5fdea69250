"""Golden known-seed digests: freeze the RNG key shapes and the output
bytes so any change to the derivation scheme, the sampling order, or an
encoder is caught as an explicit golden-value break, not a silent
different-graph.

Referenced by the ``repro.core.rng`` module docstring: the two
derivation families (``stream`` label paths vs ``spawn_streams`` spawn
keys) are disjoint by construction, and these digests pin both schemes.

If a test here fails, the generator output changed for every user.
Only update the constants for an *intentional*, release-noted break of
seed stability.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import ReferenceGenerator, RecursiveVectorGenerator
from repro.core.nary import NAryRecursiveVectorGenerator
from repro.core.seed import SeedMatrix
from repro.core.rng import derive_seed, spawn_streams, stream
from repro.formats import get_format
from repro.models import ALL_MODELS


def draw_digest(gen, n=8):
    """Digest of the first ``n`` uint64 draws — fingerprints the stream."""
    values = gen.integers(0, 1 << 63, size=n)
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()) \
        .hexdigest()[:16]


# -- key-shape freeze --------------------------------------------------

STREAM_DIGESTS = {
    (7,): "f2aa239e8ccb3760",
    (7, 0): "f2aa239e8ccb3760",   # see test_root_equals_label_zero
    (7, 0, 3): "2ba02186d1363e18",
}

SPAWN_DIGESTS = ["0538c293b4a73484", "a241f641f4331ca8",
                 "6a4263f07e4bdd8e"]

DERIVED_SEEDS = {(7, 1): 3317731564112288844,
                 (7, 2): 9139555415570476218}


def test_stream_digests_frozen():
    for (seed, *labels), expected in STREAM_DIGESTS.items():
        assert draw_digest(stream(seed, *labels)) == expected, \
            f"stream({seed}, {labels}) drifted"


def test_spawn_digests_frozen():
    assert [draw_digest(g) for g in spawn_streams(7, 3)] == SPAWN_DIGESTS


def test_derive_seed_frozen():
    for (seed, label), expected in DERIVED_SEEDS.items():
        assert derive_seed(seed, label) == expected


def test_spawn_and_stream_families_are_disjoint():
    # spawn_streams(seed, n)[i] must never equal stream(seed, i): the
    # spawn_key shape differs from the entropy-list shape.  Pinned here
    # because silently unifying them would collide worker streams with
    # scope streams.
    spawned = [draw_digest(g) for g in spawn_streams(7, 3)]
    labelled = [draw_digest(stream(7, i)) for i in range(3)]
    assert not set(spawned) & set(labelled)


def test_root_equals_label_zero():
    # Known numpy SeedSequence property: trailing zero entropy words
    # are absorbed, so ``stream(seed)`` IS ``stream(seed, 0)``.  The
    # library's own label tags therefore all start at 1 (models) or
    # 101+ (core generator).  Frozen so a numpy behaviour change — or a
    # new tag 0 — is noticed.
    assert draw_digest(stream(7)) == draw_digest(stream(7, 0))


# -- output-byte freeze ------------------------------------------------

# scale 8, edge factor 4, seed 42, defaults otherwise (the kernel).
# Re-frozen once (an intentional seed-stability break) when the kernel
# went from one uniform per destination bit to one per 7-bit chunk of
# chained conditional alias tables (``core.tables.ScopeSampler``): the
# same distribution (tests/core/test_scope_sampler.py), another use of
# the stream.  The same commit stopped a top-up round of nothing but
# duplicates from ending rejection for its block, which also changes
# bytes.  Moved with these: the noise and ``block_size=64`` digests
# below and the ``TrillionG/seq``, ``Graph500`` and ``TeG`` rows of
# ``MODEL_DIGESTS``; the stream/spawn/derive digests, the oracle's and
# the eight other models' did not.
# Re-frozen again when the default scope sizes became the keyed binomial
# split (``degree_method="split"``: they add up to |E|) and grid blocks
# began to be generated in runs of at most ``_BLOCK_EDGES`` edges.  Moved
# with these: the noise, oracle and ``block_size=64`` digests and the
# ``TrillionG/seq`` and ``Graph500`` rows; ``TeG`` (deterministic sizes,
# no block at scale 8 reaches the budget) and the other models did not.
OUTPUT_DIGESTS = {
    "adj6": "fc0559ae487f84bd30831f8569b91b3678e37c01c28b99877217bdea6dd9217e",
    "tsv": "c2aea10ff84ddd3759e6da743c05c8e21581ff07a86c1403159a11a5302d430f",
    "csr6": "d9b69d3474e982895457b2a14f130977b13f0593a938bd13e71bd9c9c0b85eb6",
}

NOISE_ADJ6_DIGEST = \
    "ce62c1ee507c635832e94347883cf9cbfb0aa3d639c0c3780efc4cec4ba23719"

# The oracle is deterministic per (params, seed) too, and intentionally
# NOT byte-identical to the kernel: one translated uniform per edge
# against one table lookup per chunk of bits.
REFERENCE_ADJ6_DIGEST = \
    "976faba191fe94f09575a6b4f47d12d8016252b5cc1500196a8d6a7bf948e2d9"


def write_digest(tmp_path, fmt_name, generator=RecursiveVectorGenerator,
                 **kwargs):
    kwargs.setdefault("seed", 42)
    gen = generator(8, 4, **kwargs)
    path = tmp_path / f"golden.{fmt_name}"
    get_format(fmt_name).write_blocks(path, gen.iter_blocks(),
                                      gen.num_vertices)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_output_digests_frozen(tmp_path):
    for fmt_name, expected in OUTPUT_DIGESTS.items():
        assert write_digest(tmp_path, fmt_name) == expected, \
            f"{fmt_name} output drifted for (scale=8, ef=4, seed=42)"


def test_noise_output_digest_frozen(tmp_path):
    assert write_digest(tmp_path, "adj6", noise=0.1) == NOISE_ADJ6_DIGEST


def test_reference_engine_digest_frozen(tmp_path):
    assert write_digest(tmp_path, "adj6", generator=ReferenceGenerator) == \
        REFERENCE_ADJ6_DIGEST
    assert REFERENCE_ADJ6_DIGEST != OUTPUT_DIGESTS["adj6"]


def test_avs_in_matches_avs_out_for_symmetric_matrix(tmp_path):
    # The Graph500 matrix has b == c, so its transpose is itself and
    # AVS-I must reproduce AVS-O byte for byte.  An asymmetry sneaking
    # into the direction flip would break this first.
    assert write_digest(tmp_path, "adj6", direction="in") == \
        OUTPUT_DIGESTS["adj6"]


def test_block_size_is_part_of_the_determinism_key(tmp_path):
    # Randomness is keyed per block *index*, so the block partitioning
    # is part of the configuration: a different block_size is a
    # different (equally valid) graph.  The explicit default must match
    # the frozen digest; a non-default must not.
    assert write_digest(tmp_path, "adj6", block_size=4096) == \
        OUTPUT_DIGESTS["adj6"]
    assert write_digest(tmp_path, "adj6", block_size=64) == \
        "f9b18c07da850926cd8d7d856cdf203fa970a9d481b9a8fb755f40dd6672f331"


# -- n x n seeds ---------------------------------------------------------

# ``NAryRecursiveVectorGenerator`` on a 3 x 3 seed at depth 5, seed 42,
# ADJ6 through ``write_blocks``.  Scope sizes of grid block ``b`` come from
# ``stream(seed, 301, b)`` and run ``k`` of it from
# ``stream(seed, 302, b, k)`` (the kernel's ``ScopeSampler`` over chunks
# of 4 + 1 base-3 digits).
NARY_ADJ6_DIGEST = \
    "5a491b4870bd1ad4888bdaad280796581f479ed17c7c46df366fccc39a6c53ae"


def test_nary_output_digest_frozen(tmp_path):
    seed = SeedMatrix(np.array([[0.30, 0.12, 0.08],
                                [0.12, 0.10, 0.05],
                                [0.08, 0.05, 0.10]]))
    gen = NAryRecursiveVectorGenerator(seed, 5, seed=42)
    path = tmp_path / "nary.adj6"
    get_format("adj6").write_blocks(path, gen.iter_blocks(),
                                    gen.num_vertices)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        NARY_ADJ6_DIGEST


# -- every registered model --------------------------------------------

# Edge-array digests at (scale=8, edge_factor=4, seed=42).  One entry
# per registry key: adding a model without freezing its digest fails
# loudly, and any sampling-order change in an existing model is an
# explicit golden break.
MODEL_DIGESTS = {
    "Barabasi-Albert": "9dbab01cb3300beb",
    "Erdos-Renyi": "ffa44e2b5f4c5dd9",
    "FastKronecker": "b2a19b3648072e10",
    "Graph500": "137d8c14a4c808ca",
    "Kronecker-AES": "90a34ae71520d955",
    "RMAT-disk": "0c1d5d43a8086580",
    "RMAT-mem": "b2a19b3648072e10",
    "RMAT/p-disk": "01b519edeae06f47",
    "RMAT/p-mem": "01b519edeae06f47",
    "TeG": "d9a8f6160da40f5b",
    "TrillionG/seq": "ca63f24e3a22b61d",
}


def edge_digest(edges):
    arr = np.ascontiguousarray(np.asarray(edges, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def test_every_registered_model_has_a_frozen_digest():
    assert set(MODEL_DIGESTS) == set(ALL_MODELS), \
        "new model registered: freeze its golden digest here"


def test_model_edge_digests_frozen():
    for key, expected in sorted(MODEL_DIGESTS.items()):
        gen = ALL_MODELS[key](scale=8, edge_factor=4, seed=42)
        assert edge_digest(gen.generate()) == expected, \
            f"model {key!r} output drifted for (scale=8, ef=4, seed=42)"
