"""The benchmark pipeline emits the same texts as before.

One round of seeds 1-3 of every workload runs through
``bench.pipeline.run``; the SHA-256 of the emitted texts, in order, must
equal the digest pinned below.  A change that alters any emitted document
(a witness, an ordering, a solver answer) fails here; a new digest goes in
together with a CHANGES.md entry saying which texts changed and why.
"""

import hashlib
import os
import sys

import pytest

# bench/ is a package at the repository root, beside src/
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import pipeline, workloads  # noqa: E402

DIGESTS = {
    "fan_validate": "ad9aa6f68853bbc4d7011e0b8083f78827505c2bf29b1d4b03c3ba0f5a918bb6",
    "gln_curves": "051001b5f2967b1af3fb4202427f50421e759a623907e5becbd5b7e15504d0bf",
    "small_docs": "b58ccfbc29414c2c646e7c40dc1489d310f22533a9edc537b9509cdcf284f525",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_bench_outputs_match_pinned_digest(workload):
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for item in next(workloads.rounds(workload, seed)):
            for text in pipeline.run(item)[-1]:
                digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == DIGESTS[workload]
