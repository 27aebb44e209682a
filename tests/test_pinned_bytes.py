"""Proof and ledger bytes pinned across commits.

The wire format is normative (docs/FORMATS.md), so a refactor of the records
that get encoded must not move a single byte.  These digests are the three
proofs the CI job builds and each scenario's ``commitments.jsonl``, at each
scenario's own seed.  A change that alters them on purpose re-records them
here and says why: the proof pins were last re-recorded for the ``EMP9``
envelope, whose holder chains are their commitments and one first-leaf path
per commitment after the first.  ``EMP8`` wrote each chain entry as a blob
of its commitment, its prev digest and its first-leaf path; the prev digest
is the digest of the commitment before it, which the verifier computes, and
the first entry's digest and path linked to nothing the verifier holds
(36 B per chain entry, plus the first entry's path; hub 4,909 -> 4,661 B,
chain 7,449 -> 6,505 B, link 3,197 -> 2,913 B).  Trees, receipts and
evidence leaves keep their bytes, so ``commitments.jsonl`` is unchanged.
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
        (4661, "8ec98c79a1dca26cba77c780b8e792ea116f517afdd4e71e1ffe305a7eaac7f1"),
        (29385, "e9be8b8909eca1b012b7cf496c9feb7f5e66c171dc6743cd1cac558b29e092c4"),
    ),
    "chain": (
        ["--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2"],
        (6505, "4b3bbbe59369d3a17ba759fe00b65a7e77e4ce63aaf76ea84062a1e021ee7083"),
        (24559, "be8982c982c74a7683460be4d2d0d07ab9d6d11b85444f2accf850dfcf25e892"),
    ),
    "identity": (
        ["--kind", "link", "--holder", "h0", "--issuer", "hub", "--start", "1", "--end", "4"],
        (2913, "c68ddb3bdcfd296db526b1cf6b76a7bfb792386e293b59e9acf890e7d6e751ad"),
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
