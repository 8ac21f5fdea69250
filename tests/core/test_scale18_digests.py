"""The end-to-end benchmark's own bytes, pinned.

``benchmarks/e2e`` times ``trilliong generate --scale 18 --format adj6
--seed 7`` with and without ``--noise 0.01``.  The golden digests of
``test_rng_golden.py`` stop at scale 8, where no scope is large enough
for the top-up rounds of a scale-18 hub block (rounds of 100 000 keys, and
rows that need tens of rounds) to happen; these two digests cover that
path.  A change that claims to be byte-neutral keeps them; a change of the
scope-size law or of the kernel re-freezes them with the others.

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
    0.0: "f2538c13f98d661aaa92f2e01d3e5d099f14cc02f1ccbe03b34e0e8062036b67",
    0.01: "6794ed81e3dbafe5cfe9d66dc9409ee0a2ad575ed8e4f5a6b34e48f9907bb458",
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
        "709f4025a7d0eb69761ddbd1a8fed953b83dfe9ca44659173e8c60a0d0409caa")


def test_extmem_rmat_disk_adj6_bytes(tmp_path):
    path = tmp_path / "r.adj6"
    RmatDiskGenerator(19, 16, seed=7).write_to(path, fmt="adj6")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "dcecc959b02ef32d41f937173adce71fa5c3c5a243b345004aa7d27611b39ac3")
