"""The end-to-end benchmark's own bytes, pinned.

``benchmarks/e2e`` times ``trilliong generate --scale 18 --format adj6
--seed 7`` with and without ``--noise 0.01``.  The golden digests of
``test_rng_golden.py`` stop at scale 8, where no scope is large enough
for the top-up rounds of a scale-18 hub block (rounds of 100 000 keys, and
rows that need tens of rounds) to happen; these two digests cover that
path, and the hub block's cut into runs of at most ``_BLOCK_EDGES``
edges (block 0 holds ≈ 0.8 M edges at scale 18).  A change that claims to
be byte-neutral keeps them; a change of the scope-size law or of the
kernel re-freezes them with the others.

The ``seq-tsv`` workload writes the same graph as text; its bytes are
pinned so an encoder change is byte-neutral by test, not by inspection.

The ``extmem-rmat-disk`` workload runs ``trilliong baseline --model
RMAT-disk --scale 19 --format adj6 --seed 7``; its graph is pinned too,
and does not depend on ``batch_edges``.
"""

import hashlib

import pytest

from repro import TrillionG
from repro.models import RmatDiskGenerator

SCALE18_DIGESTS = {
    0.0: "caa93fbb2e3e785ad4a93def6e8fb780ba33608d72a693083b176bada755e12b",
    0.01: "c02fc247d0c7b93c140899a63cebcbf8b00821f36914011957a1b3b7c2f59d86",
}


@pytest.mark.parametrize("noise", sorted(SCALE18_DIGESTS))
def test_scale18_adj6_bytes(tmp_path, noise):
    path = tmp_path / "g.adj6"
    TrillionG(18, seed=7, noise=noise).generate_to(path, fmt="adj6")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == SCALE18_DIGESTS[noise]


def test_scale18_tsv_bytes(tmp_path):
    path = tmp_path / "g.tsv"
    TrillionG(18, seed=7).generate_to(path, fmt="tsv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2c7a2d8f0a233a1df8b54d19ad3f52a89d475f46ea32ea227c68a2e2e9abf623")


def test_extmem_rmat_disk_adj6_bytes(tmp_path):
    path = tmp_path / "r.adj6"
    RmatDiskGenerator(19, 16, seed=7).write_to(path, fmt="adj6")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "dcecc959b02ef32d41f937173adce71fa5c3c5a243b345004aa7d27611b39ac3")
