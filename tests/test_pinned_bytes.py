"""Proof and ledger bytes pinned across commits.

The wire format is normative (docs/FORMATS.md), so a refactor of the records
that get encoded must not move a single byte.  These digests are the three
proofs the CI job builds and each scenario's ``commitments.jsonl``, at each
scenario's own seed.  A change that alters them on purpose re-records them
here and says why: the proof pins were last re-recorded for the ``EMPA``
envelope, which writes each holder chain commitment, window round and chain
hop bare, ended by its own fields (hub 4,629 B, chain 6,393 B, link
2,873 B).  Trees, receipts and evidence leaves kept their bytes, so
``commitments.jsonl`` was not re-recorded.
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
        (4629, "f19e81ae9854fda89d0a5049e197e92136122287e67f4c45bf3c8b187b0ce836"),
        (29385, "e9be8b8909eca1b012b7cf496c9feb7f5e66c171dc6743cd1cac558b29e092c4"),
    ),
    "chain": (
        ["--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2"],
        (6393, "4a29fbee427b75c506ea04155d5c09af528e1e82aa5c2b37902c75a28bf29cc7"),
        (24559, "be8982c982c74a7683460be4d2d0d07ab9d6d11b85444f2accf850dfcf25e892"),
    ),
    "identity": (
        ["--kind", "link", "--holder", "h0", "--issuer", "hub", "--start", "1", "--end", "4"],
        (2873, "8ab31722fc0db1087801b1bc5813f5b6de3af54a952db4356717553732c5b285"),
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
