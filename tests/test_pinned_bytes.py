"""Proof and ledger bytes pinned across commits.

The wire format is normative (docs/FORMATS.md), so a refactor of the records
that get encoded must not move a single byte.  These digests are the three
proofs the CI job builds and each scenario's ``commitments.jsonl``, at each
scenario's own seed.  A change that alters them on purpose re-records them
here and says why: the proof pins were last re-recorded for the ``EMP8``
envelope, whose link and hub proofs drop the holder id and window that
``EMP7`` wrote before their holder chains.  Those fields were unsigned and
repeated what the chain gives: its first entry's node and round, and one
round per window round (48 B per link, hub or chain hop; hub 4,957 ->
4,909 B, chain 7,641 -> 7,449 B, link 3,245 -> 3,197 B).  Receipts and
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
        (4909, "1a5c2dae28295894fab18432b0c334c1ff2af7db85d13b57985027d11d367881"),
        (29385, "e9be8b8909eca1b012b7cf496c9feb7f5e66c171dc6743cd1cac558b29e092c4"),
    ),
    "chain": (
        ["--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2"],
        (7449, "b848e22f36981018df727bec912361547fa7516f3bdcf456e1ac0bce1ef4c30f"),
        (24559, "be8982c982c74a7683460be4d2d0d07ab9d6d11b85444f2accf850dfcf25e892"),
    ),
    "identity": (
        ["--kind", "link", "--holder", "h0", "--issuer", "hub", "--start", "1", "--end", "4"],
        (3197, "49162fa5382629068e71ca3242398da6b8e83053a63a895533fd9db8f00444e1"),
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
