"""Proof and ledger bytes pinned across commits.

The wire format is normative (docs/FORMATS.md), so a refactor of the records
that get encoded must not move a single byte.  These digests are the three
proofs the CI job builds and each scenario's ``commitments.jsonl``, at each
scenario's own seed.  A change that alters them on purpose re-records them
here and says why: the proof pins were last re-recorded for the ``EMP3``
envelope, whose receipts carry no issuer commitment and whose hub proofs
prove each round's evidence with one range proof.
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
        (7868, "0b27bec04353ccbdfac2c4a99136976fa9b9ee264c84f566b1924c29c903b384"),
        (29385, "e9be8b8909eca1b012b7cf496c9feb7f5e66c171dc6743cd1cac558b29e092c4"),
    ),
    "chain": (
        ["--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2"],
        (8987, "9b5a5255271e7e84b911ba7d3b0af379bd80b72d71ea10ab73a260b1c76109e2"),
        (24559, "be8982c982c74a7683460be4d2d0d07ab9d6d11b85444f2accf850dfcf25e892"),
    ),
    "identity": (
        ["--kind", "link", "--holder", "h0", "--issuer", "hub", "--start", "1", "--end", "4"],
        (3875, "25b2023e5532f20efdf7c22a38647f4bb9b6ed60d3969cf8fea7d27c7b9bf1d5"),
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
