"""Proof and ledger bytes pinned across commits.

The wire format is normative (docs/FORMATS.md), so a refactor of the records
that get encoded must not move a single byte.  These digests are the three
proofs the CI job builds and each scenario's ``commitments.jsonl``, at each
scenario's own seed.  A change that alters them on purpose re-records them
here and says why: the proof pins were last re-recorded for the ``EMP5``
envelope, whose hub proofs are their window rounds, each the holder's
submission with every manifest issuer's receipt paths and the round's
evidence proof, with no per-issuer record or issuer id beside the manifest
(268 B less for the hub proof here).  The link and chain proofs changed
only in their magic: from byte 4 on they are their ``EMP4`` bytes.
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
        (5936, "f33644eec9aed08bebc44181dad2174ea9935484f7229125f369ee75277aad47"),
        (29385, "e9be8b8909eca1b012b7cf496c9feb7f5e66c171dc6743cd1cac558b29e092c4"),
    ),
    "chain": (
        ["--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2"],
        (8987, "d556a26e93f8603e29e678d63a716670417f4fe6f6c8e40f1b9206056e0a97b0"),
        (24559, "be8982c982c74a7683460be4d2d0d07ab9d6d11b85444f2accf850dfcf25e892"),
    ),
    "identity": (
        ["--kind", "link", "--holder", "h0", "--issuer", "hub", "--start", "1", "--end", "4"],
        (3875, "252024639c5b43e179bab540033f687935a5de4e776249b4a8244065f55d6154"),
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
