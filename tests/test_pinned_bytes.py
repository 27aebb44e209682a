"""Proof and ledger bytes pinned across commits.

The wire format is normative (docs/FORMATS.md), so a refactor of the records
that get encoded must not move a single byte.  These digests are the three
proofs the CI job builds and each scenario's ``commitments.jsonl``, at each
scenario's own seed.  A change that alters them on purpose re-records them
here and says why: the proof pins were last re-recorded for the ``EMP7``
envelope, whose window rounds hold the holder's signature where ``EMP6``
held its whole Submission: the holder id, round and root are the holder
chain entry's, which the verifier rebuilds the Submission from (72 B a
round; hub 5,173 -> 4,957 B, chain 8,217 -> 7,641 B, link 3,533 ->
3,245 B).  Receipts and evidence leaves keep their bytes, so
``commitments.jsonl`` is unchanged.
"""

import hashlib
from pathlib import Path

import pytest

from entmesh.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# scenario -> (prove arguments, proof (length, sha256), commitments.jsonl (length, sha256))
PINNED = {
    "hub": (
        ["--kind", "hub", "--holder", "center", "--start", "1", "--end", "3"],
        (4957, "d67bdc9079405371ac4b9ea91c124a0634343b9e3c3b78ccb4d88bfadf452a9b"),
        (29385, "e9be8b8909eca1b012b7cf496c9feb7f5e66c171dc6743cd1cac558b29e092c4"),
    ),
    "chain": (
        ["--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2"],
        (7641, "9a8e5c3f90cbcf59fc85578968ca0ee822157173c4b2a89930c63c1148162345"),
        (24559, "be8982c982c74a7683460be4d2d0d07ab9d6d11b85444f2accf850dfcf25e892"),
    ),
    "identity": (
        ["--kind", "link", "--holder", "h0", "--issuer", "hub", "--start", "1", "--end", "4"],
        (3245, "8cb18584e126914727916e91dbf356b7cbf031bd4eeb18dcc459b6f8b0548a7b"),
        (19628, "044d456a658ebe9d2008d2ce8d9621ad3bc6c9989e201f79b17e129b618502fc"),
    ),
}


def _pin(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_proof_and_commitments_bytes_unchanged(tmp_path, scenario):
    args, proof_pin, commitments_pin = PINNED[scenario]
    config = str(SCENARIOS / f"{scenario}.yaml")
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "run")]) == 0
    assert main(["prove", "--config", config, *args, "--out", str(tmp_path / "x.proof")]) == 0
    assert _pin((tmp_path / "x.proof").read_bytes()) == proof_pin
    assert _pin((tmp_path / "run" / "commitments.jsonl").read_bytes()) == commitments_pin
