"""Mutations of real hub, chain and link proofs.

Every mutated proof must either fail to decode with ``WireError`` or
``ValueError``, or decode and get a falsy verdict: never another exception
and never an accept.  A single flipped bit anywhere in the proofs the CI job
writes is refused with a named reason.

The verifiers check one signature per holder chain, its head's.  The
rule that also checks every holder chain commitment's signature (``every_entry_rule``
in ``adversary``, whose signature part is ``every_entry_signature``) is
kept as a slow reference: every proof it accepts, the
verifiers accept, and every mutation is refused by both.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmesh import entangle
from entmesh.config import load_config, make_simulation
from entmesh.entangle import (
    ChainProof,
    HubProof,
    build_chain_proof,
    build_hub_proof,
    build_link_proof,
    decode_proof,
    encode_proof,
    verify_chain,
    verify_hub,
    verify_link,
)
from entmesh.node import Verdict
from entmesh.wire import WireError

from adversary import every_entry_signature

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _run(name: str):
    sim = make_simulation(load_config(SCENARIOS / name))
    sim.run()
    return sim


@pytest.fixture(scope="module")
def proofs():
    hub_sim = _run("hub.yaml")
    center = hub_sim.nodes["center"]
    hub = build_hub_proof(center.records, (1, 4), center.receipt_log)
    chain_sim = _run("chain.yaml")
    ids = [chain_sim.nodes[label].node_id for label in chain_sim.path_to_anchor("h0")]
    chain = build_chain_proof(chain_sim.records_by_id(), chain_sim.receipts_by_id(), ids, 1, 2)
    link_sim = _run("identity.yaml")
    h1 = link_sim.nodes["h1"]
    link = build_link_proof(h1.records, link_sim.nodes["hub"].node_id, (6, 7), h1.receipt_log)
    return {
        "hub": (encode_proof(hub), hub_sim),
        "chain": (encode_proof(chain), chain_sim),
        "link": (encode_proof(link), link_sim),
    }


def _verdict(proof, sim):
    """The proof's verdict against the run's anchor logs, as the CLI gives
    them: ``TrustedRootUnavailable`` when there is no log for the issuer or
    anchor it names."""
    logs = {
        sim.nodes[label].node_id: {record.round: record.commitment for record in sim.nodes[label].records}
        for label in sim.topology.anchors
    }
    if isinstance(proof, HubProof):
        return verify_hub(proof, logs, sim.directory)
    log = logs.get(proof.anchor_id if isinstance(proof, ChainProof) else proof.issuer_id)
    if log is None:
        return Verdict.failed("TrustedRootUnavailable", "no anchor log for the issuer or anchor the proof names")
    return (verify_chain if isinstance(proof, ChainProof) else verify_link)(proof, log, sim.directory)


def _every_entry_verdict(proof, sim):
    """``_verdict`` under the every-entry rule: where the verifiers check a
    holder chain's head signature, ``every_entry_signature`` checks it and
    then every other entry's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entangle, "verify_chain_head", every_entry_signature)
        return _verdict(proof, sim)


def _accepted(blob: bytes, sim, verdict=_verdict) -> bool:
    try:
        proof = decode_proof(blob)
    except (WireError, ValueError):
        return False
    return bool(verdict(proof, sim))


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
def test_pristine_proof_accepted(proofs, kind):
    blob, sim = proofs[kind]
    assert _accepted(blob, sim)


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_proof_never_accepted(proofs, kind, data):
    blob, sim = proofs[kind]
    mutated = bytearray(blob)
    positions = data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=2, max_size=8, unique=True), label="positions")
    for position in positions:
        mutated[position] ^= data.draw(st.integers(1, 255), label="xor")
    assert not _accepted(bytes(mutated), sim)
    assert not _accepted(bytes(mutated), sim, _every_entry_verdict)


@pytest.fixture(scope="module")
def ci_proofs():
    """The hub, chain and link proofs the CI job writes, with their runs."""
    hub_sim, chain_sim, link_sim = _run("hub.yaml"), _run("chain.yaml"), _run("identity.yaml")
    center, h0 = hub_sim.nodes["center"], link_sim.nodes["h0"]
    ids = [chain_sim.nodes[label].node_id for label in chain_sim.path_to_anchor("h0")]
    return {
        "hub": (encode_proof(build_hub_proof(center.records, (1, 3), center.receipt_log)), hub_sim),
        "chain": (encode_proof(build_chain_proof(chain_sim.records_by_id(), chain_sim.receipts_by_id(), ids, 1, 2)), chain_sim),
        "link": (encode_proof(build_link_proof(h0.records, link_sim.nodes["hub"].node_id, (1, 4), h0.receipt_log)), link_sim),
    }


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
def test_every_single_bit_flip_is_refused_with_a_named_reason(ci_proofs, kind):
    # One bit of every byte, a different bit from byte to byte.
    blob, sim = ci_proofs[kind]
    reasons = {}
    for position in range(len(blob)):
        mutated = bytearray(blob)
        mutated[position] ^= 1 << (position % 8)
        try:
            proof = decode_proof(bytes(mutated))
        except WireError as exc:
            reason = "MalformedProof"
            assert str(exc), position
        else:
            verdict = _verdict(proof, sim)
            reason = verdict.reason
            assert not verdict and verdict.reason and verdict.detail, (position, verdict)
        reasons[reason] = reasons.get(reason, 0) + 1
    assert sum(reasons.values()) == len(blob) and "MalformedProof" in reasons and len(reasons) > 2, reasons


@pytest.mark.parametrize(("kind", "every_entry", "head"), [("hub", 5, 1), ("chain", 16, 4), ("link", 6, 1)])
def test_both_rules_accept_the_ci_proofs_and_refuse_each_bit_flip(ci_proofs, kind, every_entry, head):
    # Each CI proof passes both rules, the every-entry rule checking every
    # chain entry's signature and the head rule one per chain; and each
    # single-bit flip, one bit of every byte, is refused by both.
    blob, sim = ci_proofs[kind]
    proof = decode_proof(blob)
    reference, verdict = _every_entry_verdict(proof, sim), _verdict(proof, sim)
    assert reference and verdict
    assert (reference.signatures_checked, verdict.signatures_checked) == (every_entry, head)
    for position in range(len(blob)):
        mutated = bytearray(blob)
        mutated[position] ^= 1 << (position % 8)
        try:
            proof = decode_proof(bytes(mutated))
        except WireError:
            continue
        assert not _every_entry_verdict(proof, sim) and not _verdict(proof, sim), position


def _holder_chain_flips(blob, proof):
    """(hop, rounds, byte position) for every byte of ``proof``'s encoding
    ``blob`` whose flip makes a holder chain round of ``rounds`` not chain:
    each sibling of a link path, at its commitment's round N, and each root,
    leaf count and signature byte of a commitment at round N below a head.
    The next link folds from the whole commitment, at round N + 1; its own
    link, if it has one, folds into its root and leaf count first, at round
    N, though a leaf count in the same power-of-two bracket folds leaf 0 as
    before.  A commitment's node id and round are refused as another node's
    or round's, and its signature length does not decode."""
    parts = proof.hops if isinstance(proof, ChainProof) else (proof,)
    at, flips = 0, []
    for hop, part in enumerate(parts):
        chain = part.holder_chain.commitments
        for c in chain:
            at = blob.index(c.to_bytes(), at)
            if c is not chain[-1]:
                own = c is not chain[0]
                flips += [(hop, (c.round,) if own else (c.round + 1,), at + i) for i in range(40, 72)]
                flips += [(hop, (c.round, c.round + 1) if own else (c.round + 1,), at + i) for i in range(72, 80)]
                flips += [(hop, (c.round + 1,), at + i) for i in range(84, len(c.to_bytes()))]
            at += len(c.to_bytes())
        for c, link in zip(chain[1:], part.holder_chain.links):
            at = blob.index(link.to_bytes(), at)
            flips += [(hop, (c.round,), at + i) for i in range(4, len(link.to_bytes()))]
            at += len(link.to_bytes())
    return flips


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
def test_a_flip_in_a_link_or_a_commitment_below_the_head_does_not_chain(ci_proofs, kind):
    # The verifier computes each link's first leaf from the commitment before
    # it, so a flipped byte of either fails that link's one fold.
    blob, sim = ci_proofs[kind]
    flips = _holder_chain_flips(blob, decode_proof(blob))
    assert len({position for _, _, position in flips}) == len(flips) > 300
    for hop, rounds, position in flips:
        mutated = bytearray(blob)
        mutated[position] ^= 1 << (position % 8)
        verdict = _verdict(decode_proof(bytes(mutated)), sim)
        expected = []
        for round_no in rounds:
            inner = f"round {round_no} does not chain"
            expected.append({
                "hub": ("LinkFailed", f"holder chain: ChainBreak ({inner})"),
                "chain": ("BrokenHop", f"hop {hop}: ChainBreak ({inner})"),
                "link": ("ChainBreak", inner),
            }[kind])
        assert (verdict.reason, verdict.detail) in expected, position
