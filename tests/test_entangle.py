"""Cross-node proofs built over hand-driven nodes, plus their failure modes.

Everything here avoids the simulation engine on purpose: the harness in
conftest drives nodes round by round, so a proof bug cannot hide behind an
engine bug or vice versa.
"""

import dataclasses
import re

import pytest

from entmesh.entangle import (
    EVIDENCE_LAG,
    ChainProof,
    HubProof,
    LinkProof,
    MissingReceiptError,
    PathStep,
    RootPath,
    build_chain_proof,
    build_hub_proof,
    build_link_proof,
    build_root_path,
    decode_proof,
    encode_proof,
    verify_chain,
    verify_hub,
    verify_link,
    verify_root_path,
)
from entmesh.hashtree import MerkleTree, sha256
from entmesh.keys import Ed25519Scheme
from entmesh.node import LEAF_PAYLOAD, LEAF_PREV, MAX_SIGNATURE, ChainLink, HolderChain, commitment_digest, submission_of
from entmesh.wire import MAX_AUDIT_STEPS, MAX_ITEMS, WireError, encode_inclusion_proof, prefix

from adversary import chain_over_an_anchor_fork, emptied_bytes, forged_commitment, hub_over_an_issuer_fork, with_chain
import reference


@pytest.fixture
def pair(manual_net):
    return manual_net(["holder", "issuer"], [("holder", "issuer")]).run(8)


@pytest.fixture
def fan(manual_net):
    labels = ["center", "p0", "p1", "p2"]
    links = [("center", p) for p in labels[1:]]
    return manual_net(labels, links).run(8)


@pytest.fixture
def relay(manual_net):
    return manual_net(["a", "b", "c"], [("a", "b"), ("b", "c")]).run(9)


def link_for(net, holder, issuer, window):
    return build_link_proof(
        net.nodes[holder].records, net.id_of(issuer), window, net.nodes[holder].receipt_log
    )


def with_round(proof, index, **changes):
    """``proof`` with its window round ``index`` changed by ``changes``."""
    rounds = list(proof.rounds)
    rounds[index] = rounds[index]._replace(**changes)
    return dataclasses.replace(proof, rounds=tuple(rounds))


def with_receipts(proof, pick, **changes):
    """``proof`` with each window round holding ``pick(its receipts)``, and ``changes``."""
    return dataclasses.replace(proof, rounds=tuple(rnd._replace(receipts=pick(rnd.receipts)) for rnd in proof.rounds), **changes)


class TestLinkProof:
    def test_build_shape(self, pair):
        proof = link_for(pair, "holder", "issuer", (1, 4))
        assert len(proof.rounds) == 4
        assert all(len(rnd.receipts) == 1 for rnd in proof.rounds)
        assert len(proof.holder_chain.commitments) == 4 + EVIDENCE_LAG == len(proof.holder_chain.links) + 1
        # Each round holds the signature of the holder's submission for it;
        # the holder chain commitment holds that submission's id, round and root.
        log = pair.nodes["holder"].receipt_log
        assert [rnd.signature for rnd in proof.rounds] == [log[pair.id_of("issuer"), r].submission.signature for r in range(1, 5)]
        for c, rnd in zip(proof.holder_chain.commitments, proof.rounds):
            assert submission_of(c, rnd.signature) == log[pair.id_of("issuer"), c.round].submission

    def test_verifies_against_issuer_commitments(self, pair):
        proof = link_for(pair, "holder", "issuer", (1, 4))
        assert verify_link(proof, pair.commitments_of("issuer"), pair.directory)

    def test_wire_round_trip(self, pair):
        proof = link_for(pair, "holder", "issuer", (2, 3))
        data = encode_proof(proof)
        assert decode_proof(data) == proof

    def test_missing_receipt(self, pair):
        receipts = dict(pair.nodes["holder"].receipt_log)
        del receipts[(pair.id_of("issuer"), 2)]
        with pytest.raises(MissingReceiptError):
            build_link_proof(pair.nodes["holder"].records, pair.id_of("issuer"), (1, 4), receipts)

    def test_window_needs_lagged_rounds(self, pair):
        # Rounds run 0..7, so the window cannot end past 5.
        with pytest.raises(ValueError):
            link_for(pair, "holder", "issuer", (4, 6))

    def test_pruned_round_unusable(self, pair):
        pair.nodes["holder"].prune_record(3)
        with pytest.raises(ValueError):
            link_for(pair, "holder", "issuer", (1, 4))

    def test_missing_trusted_round(self, pair):
        proof = link_for(pair, "holder", "issuer", (1, 4))
        trusted = dict(pair.commitments_of("issuer"))
        del trusted[3]
        verdict = verify_link(proof, trusted, pair.directory)
        assert verdict.reason == "TrustedRootUnavailable"

    def test_conflicting_trusted_root(self, pair):
        # The receipt's issuer commitment is the trusted copy, so a copy with
        # another root fails the receipt's first inclusion check.
        proof = link_for(pair, "holder", "issuer", (1, 4))
        trusted = dict(pair.commitments_of("issuer"))
        trusted[3] = dataclasses.replace(trusted[3], root=sha256(b"imposter"))
        verdict = verify_link(proof, trusted, pair.directory)
        assert (verdict.reason, verdict.detail) == ("ReceiptInvalid", "submission leaf unproven for round 2")

    def test_empty_window_rejected(self, pair):
        # A window of no round, whose holder chain holds only the lag, cannot
        # be made, as the decoder cannot make it: it would vouch for no receipt.
        proof = link_for(pair, "holder", "issuer", (1, 4))
        held = proof.holder_chain
        chain = HolderChain(held.commitments[-EVIDENCE_LAG:], held.links[1 - EVIDENCE_LAG :])
        with pytest.raises(WireError, match="^a link or hub proof needs a holder chain entry and a window round$"):
            dataclasses.replace(proof, holder_chain=chain, rounds=())

    def test_chain_must_belong_to_holder(self, pair):
        # The first commitment names the holder, so a head from another node,
        # at the round the holder's own would be, is refused.
        proof = link_for(pair, "holder", "issuer", (1, 4))
        head = pair.nodes["issuer"].records[6]
        held = proof.holder_chain
        bad = with_chain(proof, commitments=held.commitments[:-1] + (head.commitment,), links=held.links[:-1] + (head.link,))
        verdict = verify_link(bad, pair.commitments_of("issuer"), pair.directory)
        assert (verdict.reason, verdict.detail) == ("HolderMismatch", "chain entry from another node")

    def test_reordered_chain_rejected(self, pair):
        proof = link_for(pair, "holder", "issuer", (1, 4))
        chain = list(proof.holder_chain.commitments)
        chain[0], chain[1] = chain[1], chain[0]
        bad = with_chain(proof, commitments=tuple(chain))
        verdict = verify_link(bad, pair.commitments_of("issuer"), pair.directory)
        assert verdict.reason == "RoundGap"

    def test_swapped_receipt_rejected(self, pair):
        # A round's submission is rebuilt from its own chain commitment, so with
        # round 3's signature, or with its own, round 3's paths do not prove
        # round 2's.  Rounds 2 and 3 both hold their paths without a prev
        # digest: only the window's first round holds one.
        proof = link_for(pair, "holder", "issuer", (1, 4))
        first, second, third = proof.rounds[:3]
        trusted = pair.commitments_of("issuer")
        swapped = lambda rnd, other: rnd._replace(signature=other.signature, receipts=other.receipts)
        bad = dataclasses.replace(proof, rounds=(first, swapped(second, third), swapped(third, second)) + proof.rounds[3:])
        verdict = verify_link(bad, trusted, pair.directory)
        assert (verdict.reason, verdict.detail) == ("ReceiptInvalid", "submission leaf unproven for round 2")
        bad = dataclasses.replace(proof, rounds=(first, second._replace(receipts=third.receipts)) + proof.rounds[2:])
        verdict = verify_link(bad, trusted, pair.directory)
        assert (verdict.reason, verdict.detail) == ("ReceiptInvalid", "submission leaf unproven for round 2")

    def test_tampered_receipt_signature_rejected(self, pair):
        proof = link_for(pair, "holder", "issuer", (1, 4))
        bad = with_round(proof, 2, signature=b"\x00" * 64)
        verdict = verify_link(bad, pair.commitments_of("issuer"), pair.directory)
        assert (verdict.reason, verdict.detail) == ("ReceiptInvalid", "submission leaf unproven for round 3")

    def test_one_submission_per_round_required(self, pair):
        # A proof with a round fewer than its holder chain covers fails
        # instead of checking only the rounds it has.  One whose round holds
        # no receipt or two cannot be made, as the decoder cannot make it.
        proof = link_for(pair, "holder", "issuer", (1, 4))
        trusted = pair.commitments_of("issuer")
        for bad in (
            dataclasses.replace(proof, rounds=proof.rounds[:-1]),
            decode_proof(encode_proof(dataclasses.replace(proof, rounds=proof.rounds[:-1]))),
        ):
            verdict = verify_link(bad, trusted, pair.directory)
            assert (verdict.reason, verdict.detail) == ("WindowInvalid", "holder chain does not cover the window")
        for receipts in ((), proof.rounds[1].receipts * 2):
            with pytest.raises(WireError, match="^a link proof round holds one receipt's paths$"):
                with_round(proof, 1, receipts=receipts)

    def test_named_issuer_must_be_the_trusted_one(self, pair):
        proof = link_for(pair, "holder", "issuer", (1, 4))
        bad = dataclasses.replace(proof, issuer_id=pair.id_of("holder"))
        verdict = verify_link(bad, pair.commitments_of("issuer"), pair.directory)
        assert (verdict.reason, verdict.detail) == ("ReceiptMismatch", "receipt from another issuer")

    def test_evidence_proof_swap_rejected(self, pair):
        proof = link_for(pair, "holder", "issuer", (1, 4))
        first, second = proof.rounds[:2]
        bad = with_round(with_round(proof, 0, evidence_proof=second.evidence_proof), 1, evidence_proof=first.evidence_proof)
        verdict = verify_link(bad, pair.commitments_of("issuer"), pair.directory)
        assert verdict.reason == "EvidenceInvalid"

    def test_every_window_in_range_verifies(self, pair):
        trusted = pair.commitments_of("issuer")
        for start in range(0, 5):
            for end in range(start, 5):
                proof = link_for(pair, "holder", "issuer", (start, end))
                assert verify_link(proof, trusted, pair.directory), (start, end)


class TestHubProof:
    def test_build_and_verify(self, fan):
        proof = build_hub_proof(
            fan.nodes["center"].records, (1, 3), fan.nodes["center"].receipt_log
        )
        assert len(proof.manifest) == 3 and all(len(rnd.receipts) == 3 for rnd in proof.rounds)
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1", "p2")}
        assert verify_hub(proof, trusted, fan.directory)

    def test_wire_round_trip(self, fan):
        proof = build_hub_proof(
            fan.nodes["center"].records, (2, 4), fan.nodes["center"].receipt_log
        )
        assert decode_proof(encode_proof(proof)) == proof

    def test_dropping_any_link_is_detected(self, fan):
        proof = build_hub_proof(
            fan.nodes["center"].records, (1, 3), fan.nodes["center"].receipt_log
        )
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1", "p2")}
        for drop in range(3):
            # From every round, or from one only: the decoder cannot make the
            # latter, a round of fewer receipts than the manifest has issuers.
            cut = lambda receipts: receipts[:drop] + receipts[drop + 1 :]
            for partial in (with_receipts(proof, cut), with_round(proof, -1, receipts=cut(proof.rounds[-1].receipts))):
                verdict = verify_hub(partial, trusted, fan.directory)
                assert (verdict.reason, verdict.detail) == ("ManifestMismatch", "presented links do not match the committed manifest")

    def test_shrunk_manifest_is_detected(self, fan):
        # Rewriting the manifest to match the dropped link still fails:
        # the committed manifest leaf in the holder tree disagrees.
        proof = build_hub_proof(
            fan.nodes["center"].records, (1, 3), fan.nodes["center"].receipt_log
        )
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1", "p2")}
        rounds = tuple(rnd._replace(receipts=rnd.receipts[1:], prev_digests=rnd.prev_digests[1:]) for rnd in proof.rounds)
        partial = dataclasses.replace(proof, manifest=proof.manifest[1:], rounds=rounds)
        verdict = verify_hub(partial, trusted, fan.directory)
        assert verdict.reason == "ManifestMismatch"

    def test_corrupt_inner_link_reported(self, fan):
        proof = build_hub_proof(
            fan.nodes["center"].records, (1, 3), fan.nodes["center"].receipt_log
        )
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1", "p2")}
        written = proof.rounds[0].prev_digests
        bad = with_round(proof, 0, prev_digests=(written[0], sha256(b"zzz"), written[2]))
        verdict = verify_hub(bad, trusted, fan.directory)
        assert verdict.reason == "LinkFailed"
        assert verdict.detail == f"{proof.manifest[1].hex()}: ReceiptInvalid (prev-commitment leaf unproven for round 1)"

    def test_corrupt_holder_chain_reported(self, fan):
        proof = build_hub_proof(
            fan.nodes["center"].records, (1, 3), fan.nodes["center"].receipt_log
        )
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1", "p2")}
        held = proof.holder_chain
        chain = list(held.commitments)
        chain[2] = forged_commitment(chain[2])
        for bad_chain in (
            HolderChain(tuple(chain), held.links),
            HolderChain(held.commitments[:-1], held.links[:-1]),
            HolderChain(held.commitments[1:] + held.commitments[:1], held.links),
        ):
            verdict = verify_hub(dataclasses.replace(proof, holder_chain=bad_chain), trusted, fan.directory)
            assert verdict.reason == "LinkFailed"
            assert verdict.detail.startswith("holder chain: ")

    def test_one_holder_chain_for_all_issuers(self, fan):
        # The hub carries each fact of the per-issuer link proofs once.
        proof = build_hub_proof(
            fan.nodes["center"].records, (1, 3), fan.nodes["center"].receipt_log
        )
        evidence_leaves = []
        for k, label in enumerate(sorted(("p0", "p1", "p2"), key=fan.id_of)):
            link = link_for(fan, "center", label, (1, 3))
            assert proof.manifest[k] == link.issuer_id
            assert proof.holder_chain == link.holder_chain
            for hub_round, link_round in zip(proof.rounds, link.rounds, strict=True):
                assert hub_round.signature == link_round.signature
                assert (hub_round.receipts[k],) == link_round.receipts
            evidence_leaves.append([rnd.evidence_proof.leaf_index for rnd in link.rounds])
        # One range proof per round covers the three issuers' evidence
        # leaves, in manifest order.
        for run, rnd in zip(zip(*evidence_leaves), proof.rounds):
            ev = rnd.evidence_proof
            assert list(run) == list(range(ev.leaf_index, ev.leaf_index + 3))

    def test_evidence_run_must_be_contiguous(self, fan):
        # The engine retains one holder round's receipts side by side, in
        # manifest order; a holder tree that does not is refused.
        center = fan.nodes["center"]
        retaining = center.records[4]
        evidence = retaining.state.evidence
        swapped = dataclasses.replace(retaining.state, evidence=(evidence[1], evidence[0]) + evidence[2:])
        center.records[4] = dataclasses.replace(retaining, state=swapped)
        with pytest.raises(ValueError, match="receipts for round 2 are not one run of leaves"):
            build_hub_proof(center.records, (1, 3), center.receipt_log)

    def test_range_evidence_names_the_round(self, fan):
        proof = build_hub_proof(fan.nodes["center"].records, (1, 3), fan.nodes["center"].receipt_log)
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1", "p2")}
        first, second = proof.rounds[:2]
        swapped = with_round(with_round(proof, 0, evidence_proof=second.evidence_proof), 1, evidence_proof=first.evidence_proof)
        verdict = verify_hub(swapped, trusted, fan.directory)
        assert (verdict.reason, verdict.detail) == ("EvidenceInvalid", "receipts for round 1 not retained in round 3")
        # Receipts out of manifest order are checked against the issuers the
        # manifest names there, so the first one fails its own inclusion.
        reordered = with_receipts(proof, lambda receipts: receipts[::-1])
        verdict = verify_hub(reordered, trusted, fan.directory)
        detail = f"{proof.manifest[0].hex()}: ReceiptInvalid (submission leaf unproven for round 1)"
        assert (verdict.reason, verdict.detail) == ("LinkFailed", detail)

    def test_missing_issuer_trust(self, fan):
        proof = build_hub_proof(
            fan.nodes["center"].records, (1, 3), fan.nodes["center"].receipt_log
        )
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1")}
        verdict = verify_hub(proof, trusted, fan.directory)
        assert verdict.reason == "TrustedRootUnavailable"

    def test_empty_manifest_refused(self, fan):
        # A hub proof with no links cannot be made ("a hub proof needs at least
        # one link"), so `build_hub_proof` refuses first, naming the round.
        leaf = fan.nodes["p0"]
        assert leaf.records[1].state.manifest == ()
        with pytest.raises(ValueError, match="empty manifest"):
            build_hub_proof(leaf.records, (1, 3), leaf.receipt_log)

    def test_manifest_constant_inside_window(self, fan):
        fan.nodes["center"].set_manifest([fan.id_of("p0")])
        fan.run_round()
        with pytest.raises(ValueError):
            build_hub_proof(fan.nodes["center"].records, (7, 8), {})


def hub_for(net, window=(1, 3)):
    return build_hub_proof(net.nodes["center"].records, window, net.nodes["center"].receipt_log)


def without_issuers(rounds):
    """``rounds`` holding no receipt's paths and no prev digest, as a hub of no issuer writes them."""
    return [rnd._replace(receipts=(), prev_digests=()) for rnd in rounds]


class TestHubCodec:
    """A hub proof carries each window round's holder signature once, with
    every manifest issuer's receipt paths for that round."""

    def test_each_round_submission_written_once(self, fan):
        # Of each round's submission only the signature is written, once: its
        # holder id, round and root are the holder chain commitment's.
        proof = hub_for(fan)
        data = encode_proof(proof)
        assert data == reference.encode(proof)
        log = fan.nodes["center"].receipt_log
        for r, rnd in zip((1, 2, 3), proof.rounds):
            sub = log[proof.manifest[0], r].submission
            assert data.count(rnd.signature) == 1 and data.count(sub.to_bytes()) == 0
        # The manifest names each issuer once; the rounds hold no issuer id.
        for issuer_id in proof.manifest:
            assert data.count(issuer_id) == 1
        # Each one signs the submission every issuer's receipt for its round holds.
        for issuer_id in proof.manifest:
            assert tuple(rnd.signature for rnd in proof.rounds) == tuple(log[issuer_id, r].submission.signature for r in (1, 2, 3))
        assert decode_proof(data) == proof

    @pytest.mark.parametrize("change", [1, -1])
    def test_decoder_refuses_an_issuer_record_of_another_length(self, fan, change):
        # A round holds one receipt's paths per manifest issuer, so in a last
        # round with one more, the extra paths' submission-leaf path is read as
        # the evidence proof and the rest is left over; with one fewer, the
        # evidence proof is read as the last paths' first, and they run past the end.
        proof = hub_for(fan)
        last = proof.rounds[-1]
        extra = last.receipts[0]
        receipts = last.receipts + (extra,) if change > 0 else last.receipts[:-1]
        rounds = proof.rounds[:-1] + (last._replace(receipts=receipts),)
        left = len(extra.to_bytes()) - len(encode_inclusion_proof(extra.inclusion)) + len(encode_inclusion_proof(last.evidence_proof))
        error = f"^{left} trailing bytes$" if change > 0 else "^truncated input$"
        with pytest.raises(WireError, match=error):
            decode_proof(reference.encode(proof, window_rounds=rounds))

    def test_decoder_refuses_a_hub_with_no_issuer_record(self, fan):
        proof = hub_for(fan)
        with pytest.raises(WireError, match="needs at least one link"):
            decode_proof(reference.encode(proof, manifest_ids=(), window_rounds=without_issuers(proof.rounds)))
        with pytest.raises(WireError, match="needs at least one link"):
            with_receipts(proof, lambda receipts: (), manifest=())

    def test_round_of_400_issuers_round_trips(self, fan):
        # A hub round holds one receipt's paths per issuer, read by the
        # manifest's length: no bound but the manifest's covers its bytes.
        proof = hub_for(fan)
        manifest = tuple(sorted(sha256(bytes([i, j])) for i in range(2) for j in range(200)))
        rounds = tuple(rnd._replace(receipts=rnd.receipts[:1] * len(manifest), prev_digests=rnd.prev_digests[:1] * len(manifest)) for rnd in proof.rounds)
        wide = dataclasses.replace(proof, manifest=manifest, rounds=rounds)
        assert len(reference.write("WindowRound", wide.rounds[0])) > 1 << 16
        data = encode_proof(wide)
        assert data == reference.encode(wide) and decode_proof(data) == wide
        assert encode_proof(decode_proof(data)) == data

    def test_builder_refuses_a_doctored_receipt_log(self, fan):
        center = fan.nodes["center"]
        log = dict(center.receipt_log)
        key = (fan.id_of("p1"), 2)
        sub = log[key].submission
        log[key] = dataclasses.replace(log[key], submission=dataclasses.replace(sub, signature=bytes(64)))
        with pytest.raises(ValueError, match="round 2 carry different submissions"):
            build_hub_proof(center.records, (1, 3), log)
        assert build_hub_proof(center.records, (3, 4), log) == hub_for(fan, (3, 4))

    # The decoder takes any number of manifest proofs and window rounds; the
    # verifier needs one of each per window round, or it would check fewer.
    def test_verifier_refuses_a_decoded_hub_without_manifest_proofs(self, fan):
        proof = decode_proof(encode_proof(dataclasses.replace(hub_for(fan, (1, 4)), manifest_proofs=())))
        assert proof.manifest_proofs == ()
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1", "p2")}
        verdict = verify_hub(proof, trusted, fan.directory)
        assert (verdict.reason, verdict.detail) == ("WindowInvalid", "one manifest proof per round required")

    def test_verifier_refuses_a_decoded_hub_with_one_evidence_proof_of_four(self, fan):
        # Each window round holds its evidence proof, so a hub with one
        # evidence proof of four holds one round of four, and with as many
        # manifest proofs its holder chain covers more than its window.  A
        # fifth round repeats a later one: only the first holds prev digests.
        honest = hub_for(fan, (1, 4))
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1", "p2")}
        for count in (1, 5):
            rounds, manifest_proofs = (honest.rounds + honest.rounds[1:])[:count], (honest.manifest_proofs * 2)[:count]
            proof = decode_proof(encode_proof(dataclasses.replace(honest, rounds=rounds, manifest_proofs=manifest_proofs)))
            assert proof.rounds == rounds
            verdict = verify_hub(proof, trusted, fan.directory)
            assert (verdict.reason, verdict.detail) == ("LinkFailed", "holder chain: WindowInvalid (holder chain does not cover the window)")


class TestChainProof:
    def path_ids(self, relay):
        return [relay.id_of("a"), relay.id_of("b"), relay.id_of("c")]

    def test_build_and_verify(self, relay):
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1, window_len=2
        )
        assert len(proof.hops) == 2
        assert proof.hops[-1].window_end + 1 == 4
        assert verify_chain(proof, relay.commitments_of("c"), relay.directory)

    def test_wire_round_trip(self, relay):
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 2
        )
        assert decode_proof(encode_proof(proof)) == proof

    def test_windows_shift_one_round_per_hop(self, relay):
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1, window_len=2
        )
        assert (proof.hops[0].window_start, proof.hops[0].window_end) == (1, 2)
        assert (proof.hops[1].window_start, proof.hops[1].window_end) == (2, 3)

    def test_anchor_not_yet_trusted(self, relay):
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1
        )
        cutoff = proof.hops[-1].window_end + 1
        trusted = {r: c for r, c in relay.commitments_of("c").items() if r < cutoff}
        verdict = verify_chain(proof, trusted, relay.directory)
        assert verdict.reason == "InsufficientLatency"

    def test_anchor_disagreement(self, relay):
        # The last hop's receipt takes the trusted anchor commitment as its
        # issuer commitment, so a trusted copy with another root fails it.
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1
        )
        trusted = dict(relay.commitments_of("c"))
        r = proof.hops[-1].window_end + 1
        trusted[r] = dataclasses.replace(trusted[r], root=sha256(b"wrong"))
        verdict = verify_chain(proof, trusted, relay.directory)
        assert (verdict.reason, verdict.detail) == (
            "BrokenHop",
            f"hop 1: ReceiptInvalid (submission leaf unproven for round {r - 1})",
        )

    def test_hop_composition_must_connect(self, relay):
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1
        )
        bad = dataclasses.replace(proof, hops=(proof.hops[0], proof.hops[0]))
        verdict = verify_chain(bad, relay.commitments_of("c"), relay.directory)
        assert verdict.reason == "BrokenHop"

    def test_anchor_from_wrong_node(self, relay):
        # Another node's log as the anchor trust would put that node's
        # commitments into the last hop's receipts, which name the anchor.
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1
        )
        verdict = verify_chain(proof, relay.commitments_of("b"), relay.directory)
        assert verdict.reason == "BrokenHop"
        assert verdict.detail == "hop 1: ReceiptMismatch (receipt from another issuer)"

    def test_named_anchor_must_be_the_trusted_one(self, relay):
        # The receipts take the anchor's trusted commitments, so the anchor id
        # the proof names must be theirs: another id is refused, not ignored.
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1
        )
        renamed = dataclasses.replace(proof.hops[-1], issuer_id=relay.id_of("a"))
        bad = dataclasses.replace(proof, hops=proof.hops[:-1] + (renamed,))
        verdict = verify_chain(bad, relay.commitments_of("c"), relay.directory)
        assert (verdict.reason, verdict.detail) == ("BrokenHop", "hop 1: ReceiptMismatch (receipt from another issuer)")

    def test_anchor_commitment_is_the_last_receipts(self, relay):
        # The proof stores no anchor commitment: the anchor round is the last
        # hop's window end + 1, and the anchor's commitment at that round is
        # the one the last receipt was issued with.
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1, window_len=2
        )
        last = proof.hops[-1]
        retained = relay.nodes["b"].receipt_log[relay.id_of("c"), last.window_end]
        assert retained.issuer_commitment == relay.commitments_of("c")[last.window_end + 1]
        # After the window's first round, the paths are the retained ones but for the prev digest.
        assert last.rounds[-1].signature is retained.submission.signature
        assert last.rounds[-1].receipts[0] is retained.paths and last.rounds[-1].prev_digests == ()
        first = relay.nodes["b"].receipt_log[relay.id_of("c"), last.window_start]
        assert last.rounds[0].receipts[0] is first.paths and last.rounds[0].prev_digests == (first.prev_digest,)

    def test_insufficient_latency_names_first_verifying_round(self, relay):
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1
        )
        trusted = {r: c for r, c in relay.commitments_of("c").items() if r < 3}
        verdict = verify_chain(proof, trusted, relay.directory)
        assert verdict.reason == "InsufficientLatency"
        assert verdict.detail.endswith("needs an anchor commitment at round >= 3")

    def test_too_early_anchor_refused_before_any_signature(self, relay, monkeypatch):
        # The last hop's round-3 receipt needs the anchor's round-4
        # commitment.  The hop's holder chain met its head before, but a
        # failed check leaves every signature unchecked.
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1, window_len=2
        )
        trusted = {r: c for r, c in relay.commitments_of("c").items() if r < 4}
        calls = []
        verify = Ed25519Scheme.verify
        monkeypatch.setattr(Ed25519Scheme, "verify", lambda self, *args: calls.append(args) or verify(self, *args))
        verdict = verify_chain(proof, trusted, relay.directory)
        assert verdict.reason == "InsufficientLatency"
        assert verdict.detail == (
            "no trusted issuer commitment for round 4; chain of 2 hops needs an anchor commitment at round >= 4"
        )
        assert verdict.signatures_checked == 0 and calls == []

    def test_window_past_its_holder_chain_is_a_broken_hop(self, relay):
        # The window of 50 rounds also reaches past the trusted log; the hop's
        # own fault is what gets reported.
        proof = build_chain_proof(relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay)[:2], 1)
        (first,) = proof.hops[0].rounds
        later = first._replace(prev_digests=())
        stretched = ChainProof(hops=(dataclasses.replace(proof.hops[0], rounds=(first,) + (later,) * 49),))
        assert stretched.hops[0].window_end == 50
        verdict = verify_chain(stretched, relay.commitments_of("b"), relay.directory)
        assert (verdict.reason, verdict.detail) == ("BrokenHop", "hop 0: WindowInvalid (holder chain does not cover the window)")

    @pytest.mark.parametrize("hop", [0, 1])
    def test_hop_with_no_holder_chain_cannot_be_made(self, relay, hop):
        # A hop's window is its holder chain's, so a hop with none would have
        # no window to shift: like the decoder, a holder chain refuses to be empty.
        proof = build_chain_proof(relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1)
        with pytest.raises(WireError, match="^a link or hub proof needs a holder chain entry and a window round$"):
            with_chain(proof.hops[hop], commitments=(), links=())

    def test_corrupt_inner_hop_reported(self, relay):
        proof = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), self.path_ids(relay), 1, window_len=2
        )
        hop = proof.hops[0]
        bad_hop = with_round(hop, 0, signature=b"\x01" * 64)
        bad = dataclasses.replace(proof, hops=(bad_hop, proof.hops[1]))
        verdict = verify_chain(bad, relay.commitments_of("c"), relay.directory)
        assert (verdict.reason, verdict.detail) == ("BrokenHop", "hop 0: ReceiptInvalid (submission leaf unproven for round 1)")

    def test_needs_two_nodes(self, relay):
        with pytest.raises(ValueError):
            build_chain_proof(relay.records_by_id(), relay.receipts_by_id(), [relay.id_of("a")], 1)


class TestIssuerContinuity:
    """Each issuer's chain enters a proof once, as the prev digest its paths
    hold in the window's first round.  After it, the verifier folds each
    receipt's first leaf from its trusted issuer commitment of the round
    before, so a trust log that holds an equivocating issuer's fork breaks
    the issuer chain in every kind of proof, not only in a lone link
    (tests/test_verify_order.py has that one)."""

    def test_hub_over_a_trust_log_with_a_fork(self, fan):
        bad, trust = hub_over_an_issuer_fork(fan, "center", "p1")
        verdict = verify_hub(decode_proof(encode_proof(bad)), trust, fan.directory)
        detail = f"{fan.id_of('p1').hex()}: ChainBreak (issuer chain breaks before round 3)"
        assert (verdict.reason, verdict.detail) == ("LinkFailed", detail)

    def test_chain_over_an_anchor_log_with_a_fork_at_the_last_hop(self, relay):
        # Hop 1 covers b's rounds [2, 3]: its round-3 receipt comes from c's fork.
        bad, trust = chain_over_an_anchor_fork(relay, ["a", "b", "c"], 1, 2)
        verdict = verify_chain(decode_proof(encode_proof(bad)), trust, relay.directory)
        assert (verdict.reason, verdict.detail) == ("BrokenHop", "hop 1: ChainBreak (issuer chain breaks before round 4)")


class TestWrittenPrevDigests:
    """A written prev digest is the one a proof's first window round folds
    each issuer's first leaf from: any bit of it flipped, the receipt's
    own check refuses it for that round, naming the issuer or hop."""

    @staticmethod
    def flips(proof, digest):
        """``proof``'s bytes with each bit of ``digest``, written once, flipped in turn."""
        data = encode_proof(proof)
        assert data.count(digest) == 1
        at = data.index(digest)
        for bit in range(len(digest) * 8):
            flipped = bytearray(data)
            flipped[at + bit // 8] ^= 1 << (bit % 8)
            yield decode_proof(bytes(flipped))

    def test_every_bit_of_a_hubs_written_digests(self, fan):
        proof = hub_for(fan)
        trusted = {fan.id_of(p): fan.commitments_of(p) for p in ("p0", "p1", "p2")}
        for issuer_id, prev_digest in zip(proof.manifest, proof.rounds[0].prev_digests, strict=True):
            expected = ("LinkFailed", f"{issuer_id.hex()}: ReceiptInvalid (prev-commitment leaf unproven for round 1)")
            for bad in self.flips(proof, prev_digest):
                verdict = verify_hub(bad, trusted, fan.directory)
                assert (verdict.reason, verdict.detail) == expected

    def test_every_bit_of_a_chain_hops_written_digest(self, relay):
        path = [relay.id_of("a"), relay.id_of("b"), relay.id_of("c")]
        proof = build_chain_proof(relay.records_by_id(), relay.receipts_by_id(), path, 1, window_len=2)
        for i, hop in enumerate(proof.hops):
            (prev_digest,) = hop.rounds[0].prev_digests
            expected = ("BrokenHop", f"hop {i}: ReceiptInvalid (prev-commitment leaf unproven for round {hop.window_start})")
            for bad in self.flips(proof, prev_digest):
                verdict = verify_chain(bad, relay.commitments_of("c"), relay.directory)
                assert (verdict.reason, verdict.detail) == expected


class TestRootPath:
    def test_forward_path_through_relay(self, relay):
        records = relay.records_by_id()
        path = build_root_path(records, (relay.id_of("a"), 0), (relay.id_of("c"), 2))
        assert path is not None
        assert [s.kind for s in path.steps] == ["entangled", "entangled"]
        start = relay.nodes["a"].record_at(0).root
        end = relay.nodes["c"].record_at(2).root
        assert verify_root_path(path, start, end)

    def test_self_path_uses_prev_links(self, relay):
        records = relay.records_by_id()
        node = relay.id_of("a")
        path = build_root_path(records, (node, 0), (node, 2))
        assert [s.kind for s in path.steps] == ["prev", "prev"]
        assert verify_root_path(
            path, relay.nodes["a"].record_at(0).root, relay.nodes["a"].record_at(2).root
        )

    def test_no_backward_path_in_one_way_net(self, relay):
        records = relay.records_by_id()
        assert build_root_path(records, (relay.id_of("c"), 0), (relay.id_of("a"), 3)) is None

    def test_wrong_terminal_roots_rejected(self, relay):
        records = relay.records_by_id()
        path = build_root_path(records, (relay.id_of("a"), 0), (relay.id_of("c"), 2))
        good_start = relay.nodes["a"].record_at(0).root
        good_end = relay.nodes["c"].record_at(2).root
        assert not verify_root_path(path, sha256(b"x"), good_end)
        assert not verify_root_path(path, good_start, sha256(b"y"))

    def test_empty_path_only_for_identical_endpoints(self, relay):
        node = relay.id_of("b")
        path = build_root_path(relay.records_by_id(), (node, 3), (node, 3))
        assert path.steps == ()
        root = relay.nodes["b"].record_at(3).root
        assert verify_root_path(path, root, root)
        assert not verify_root_path(path, root, sha256(b"other"))

    def test_unknown_step_kind_rejected(self, relay):
        path = build_root_path(relay.records_by_id(), (relay.id_of("a"), 0), (relay.id_of("c"), 2))
        doctored = RootPath(
            start_id=path.start_id,
            start_round=path.start_round,
            end_id=path.end_id,
            end_round=path.end_round,
            steps=(dataclasses.replace(path.steps[0], kind="sideways"),) + path.steps[1:],
        )
        start = relay.nodes["a"].record_at(0).root
        end = relay.nodes["c"].record_at(2).root
        assert not verify_root_path(doctored, start, end)

    def test_a_step_that_does_not_fold_ends_the_path(self, relay):
        # A path with a sibling too many folds to no root, so the walk ends
        # there, whatever end root the path is held to: even None.
        path = build_root_path(relay.records_by_id(), (relay.id_of("a"), 0), (relay.id_of("c"), 2))
        *steps, last = path.steps
        proof = last.proof._replace(siblings=last.proof.siblings + last.proof.siblings[:1])
        doctored = dataclasses.replace(path, steps=(*steps, dataclasses.replace(last, proof=proof)))
        assert not verify_root_path(doctored, relay.nodes["a"].record_at(0).root, None)

    def test_prev_step_starts_from_the_running_root(self, relay):
        # A prev step folds its own commitment's digest, whatever the running
        # root is: only comparing that commitment's root with it ties the
        # step to the path's start.
        a = relay.nodes["a"]
        path = build_root_path(relay.records_by_id(), (a.node_id, 0), (a.node_id, 2))
        end = a.record_at(2).root
        assert verify_root_path(path, a.record_at(0).root, end)
        for start in (a.record_at(1).root, relay.nodes["b"].record_at(0).root, sha256(b"x")):
            assert not verify_root_path(path, start, end)

    def test_prev_step_folds_the_first_leaf_only(self, relay):
        # A tree may hold a leaf equal to a commitment's prev leaf elsewhere
        # than at index 0; its path folds to the tree's root, but only the
        # first leaf chains the commitment before it.
        c = relay.nodes["a"].record_at(0).commitment
        prev_leaf, other = bytes([LEAF_PREV]) + commitment_digest(c), bytes([LEAF_PAYLOAD]) + sha256(b"payload")
        for leaves, index, chains in (([prev_leaf, other], 0, True), ([other, prev_leaf], 1, False)):
            tree = MerkleTree(leaves)
            step = PathStep(kind="prev", proof=tree.prove_inclusion(index), tree_size=tree.size, commitment=c)
            path = RootPath(c.node_id, c.round, c.node_id, c.round + 1, (step,))
            assert verify_root_path(path, c.root, tree.root) is chains


class TestProofCodec:
    def test_kind_bytes_distinct(self, pair, fan, relay):
        link = link_for(pair, "holder", "issuer", (1, 2))
        hub = build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log)
        chain = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(),
            [relay.id_of("a"), relay.id_of("b"), relay.id_of("c")], 1,
        )
        kinds = {encode_proof(p)[4] for p in (link, hub, chain)}
        assert len(kinds) == 3
        for p in (link, hub, chain):
            assert type(decode_proof(encode_proof(p))) is type(p)
            assert encode_proof(decode_proof(encode_proof(p))) == encode_proof(p)

    def test_bad_magic(self, pair):
        data = bytearray(encode_proof(link_for(pair, "holder", "issuer", (1, 2))))
        data[0] ^= 0xFF
        with pytest.raises(WireError):
            decode_proof(bytes(data))

    def test_unknown_kind(self, pair):
        data = bytearray(encode_proof(link_for(pair, "holder", "issuer", (1, 2))))
        data[4] = 0x7F
        with pytest.raises(WireError):
            decode_proof(bytes(data))

    def test_truncation_rejected(self, pair):
        data = encode_proof(link_for(pair, "holder", "issuer", (1, 2)))
        with pytest.raises(WireError):
            decode_proof(data[:-3])

    def test_trailing_garbage_rejected(self, pair):
        data = encode_proof(link_for(pair, "holder", "issuer", (1, 2)))
        with pytest.raises(WireError):
            decode_proof(data + b"\x00")

    def test_holder_chain_count_bound(self, pair):
        # Well-formed commitments and links throughout: only the 4096-item list bound rejects it.
        link = link_for(pair, "holder", "issuer", (1, 2))
        held = link.holder_chain
        at_bound = with_chain(link, commitments=held.commitments[:1] * 4096, links=held.links[:1] * 4095)
        assert len(decode_proof(encode_proof(at_bound)).holder_chain.commitments) == 4096
        over = with_chain(link, commitments=held.commitments[:1] * 4097, links=held.links[:1] * 4096)
        with pytest.raises(WireError, match="^too many holder chain commitments: 4097$"):
            decode_proof(encode_proof(over))

    def test_links_are_one_per_commitment_after_the_first(self, pair):
        # The commitments' count fixes the links', so a holder chain with
        # another count cannot be made: it would have no bytes to write.
        link = link_for(pair, "holder", "issuer", (1, 2))
        links = link.holder_chain.links
        for other in (links[1:], links + links[:1]):
            with pytest.raises(WireError, match="^a holder chain holds one link per commitment after the first$"):
                with_chain(link, links=other)

    def test_chain_needs_a_hop(self, relay):
        chain = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), [relay.id_of("a"), relay.id_of("b")], 1
        )
        with pytest.raises(WireError, match="^a chain proof needs at least one hop$"):
            dataclasses.replace(chain, hops=())
        with pytest.raises(WireError, match="^a chain proof needs at least one hop$"):
            decode_proof(encode_proof(chain)[:5] + prefix(0))

    def test_extra_byte_after_a_holder_chain_commitment(self, pair):
        # The only commitments a proof carries are its holder chain's, each
        # ended by its signature blob.  An extra byte after the first is read
        # as the second's first byte, so the second's signature length takes
        # the low byte of its leaf count as its high byte: past MAX_SIGNATURE.
        link = link_for(pair, "holder", "issuer", (1, 2))
        second = link.holder_chain.commitments[1]
        data = encode_proof(link)
        assert data == reference.encode(link)
        at = reference.starts(data)["body.holder_chain.holder_chain_commitments.1"]
        with pytest.raises(WireError, match=f"^blob length {(second.leaf_count & 0xFF) << 24} exceeds limit$"):
            decode_proof(data[:at] + b"\x00" + data[at:])

    def test_chain_last_hop_needs_a_receipt(self, relay):
        chain = build_chain_proof(
            relay.records_by_id(), relay.receipts_by_id(), [relay.id_of("a"), relay.id_of("b")], 1
        )
        with pytest.raises(WireError, match="^a link or hub proof needs a holder chain entry and a window round$"):
            dataclasses.replace(chain.hops[0], rounds=())
        hop = emptied_bytes(chain.hops[0], "rounds")
        with pytest.raises(WireError, match="^a link or hub proof needs a holder chain entry and a window round$"):
            decode_proof(encode_proof(chain)[:5] + prefix(1) + hop)

    @pytest.mark.parametrize("kind", ["link", "hub", "chain"])
    @pytest.mark.parametrize("empty", ["holder_chain", "rounds"])
    def test_proof_with_no_holder_chain_entry_or_window_round_refused(self, pair, fan, relay, kind, empty):
        # The first holder chain commitment names the holder and the window's
        # first round, and the window holds one round per window round, so a
        # proof with neither has no holder or window to name.
        path = [relay.id_of("a"), relay.id_of("b"), relay.id_of("c")]
        proof = {
            "link": link_for(pair, "holder", "issuer", (1, 2)),
            "hub": hub_for(fan, (1, 2)),
            "chain": build_chain_proof(relay.records_by_id(), relay.receipts_by_id(), path, 1),
        }[kind]
        if kind == "chain":
            bad = prefix(2) + proof.hops[0].to_bytes() + emptied_bytes(proof.hops[1], empty)
        else:
            bad = emptied_bytes(proof, empty)
        with pytest.raises(WireError, match="^a link or hub proof needs a holder chain entry and a window round$"):
            decode_proof(encode_proof(proof)[:5] + bad)

    def test_previous_envelope_refused(self, fan):
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        with pytest.raises(WireError, match="not a proof file"):
            decode_proof(b"EMP1" + data[4:])

    def test_emp2_envelope_refused(self, fan):
        # EMP2 receipts carried the issuer commitment; no EMP2 reader is kept.
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        assert data[:4] == b"EMPB"
        with pytest.raises(WireError, match="not a proof file"):
            decode_proof(b"EMP2" + data[4:])

    def test_emp3_envelope_refused(self, fan):
        # EMP3 hub proofs repeated each round's submission in every issuer's
        # receipt; no EMP3 reader is kept.
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        with pytest.raises(WireError, match="not a proof file"):
            decode_proof(b"EMP3" + data[4:])

    def test_emp4_envelope_refused(self, fan):
        # EMP4 hub proofs held per-issuer records beside the rounds'
        # submissions and evidence proofs; no EMP4 reader is kept.
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        with pytest.raises(WireError, match="not a proof file"):
            decode_proof(b"EMP4" + data[4:])

    def test_emp5_envelope_refused(self, fan):
        # EMP5 paths held their tree size, step count, side bytes and every
        # leaf index; no EMP5 reader is kept.
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        with pytest.raises(WireError, match="not a proof file"):
            decode_proof(b"EMP5" + data[4:])

    def test_emp6_envelope_refused(self, fan):
        # EMP6 window rounds held the holder's whole Submission; no EMP6
        # reader is kept.
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        with pytest.raises(WireError, match="not a proof file"):
            decode_proof(b"EMP6" + data[4:])

    def test_emp7_envelope_refused(self, fan):
        # EMP7 link and hub proofs began with the holder id and window, which
        # their holder chains give; no EMP7 reader is kept.
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        with pytest.raises(WireError, match="not a proof file"):
            decode_proof(b"EMP7" + data[4:])

    def test_emp8_envelope_refused(self, fan):
        # EMP8 holder chains held a prev digest per entry, which the verifier
        # computes from the commitment before it, and a first-leaf path for
        # the first entry, which linked to nothing; no EMP8 reader is kept.
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        with pytest.raises(WireError, match="^not a proof file$"):
            decode_proof(b"EMP8" + data[4:])

    def test_emp9_envelope_refused(self, fan):
        # EMP9 wrote each holder chain commitment, window round and chain hop
        # in a blob length its own fields fixed; no EMP9 reader is kept.
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        with pytest.raises(WireError, match="^not a proof file$"):
            decode_proof(b"EMP9" + data[4:])

    def test_empa_envelope_refused(self, fan):
        # EMPA wrote each issuer's prev digest in every window round, which
        # after the first the verifier takes from its trusted issuer
        # commitment of the round before; no EMPA reader is kept.
        data = encode_proof(build_hub_proof(fan.nodes["center"].records, (1, 2), fan.nodes["center"].receipt_log))
        with pytest.raises(WireError, match="^not a proof file$"):
            decode_proof(b"EMPA" + data[4:])

    def test_not_a_proof_object(self):
        with pytest.raises(TypeError):
            encode_proof("nonsense")


def bounded_fields(link, chain):
    """Each bounded field of a proof: (proof, the reference reader's name
    for it, its value, its bound, the refusal past the bound).  Held records
    have no length of their own, so the reader finds each by the fields
    before it."""
    first = "body.window_rounds.0"
    return {
        "holder-chain-commitments": (link, "body.holder_chain.holder_chain_commitments", len(link.holder_chain.commitments), MAX_ITEMS, "too many holder chain commitments"),
        "commitment-signature": (link, "body.holder_chain.holder_chain_commitments.0.signature", len(link.holder_chain.commitments[0].signature), MAX_SIGNATURE, "blob length"),
        "window-rounds": (link, "body.window_rounds", len(link.rounds), MAX_ITEMS, "too many window rounds"),
        "round-signature": (link, f"{first}.signature", len(link.rounds[0].signature), MAX_SIGNATURE, "blob length"),
        "receipt-path-steps": (link, f"{first}.receipts.0.inclusion.audit_steps", len(link.rounds[0].receipts[0].inclusion.siblings), MAX_AUDIT_STEPS, "too many audit steps"),
        "hops": (chain, "body.hops", len(chain.hops), MAX_ITEMS, "too many hops"),
    }


class TestBareRecordsKeepTheirBounds:
    """A record held in another is written bare, yet every count, signature
    blob and path in it keeps its bound, checked before what it covers is
    read: one past the bound is refused, whatever bytes follow."""

    @pytest.mark.parametrize("field", ["holder-chain-commitments", "commitment-signature", "window-rounds", "round-signature", "receipt-path-steps", "hops"])
    def test_one_past_the_bound_refused(self, field, pair, relay):
        link = link_for(pair, "holder", "issuer", (1, 2))
        chain = build_chain_proof(relay.records_by_id(), relay.receipts_by_id(), [relay.id_of(n) for n in "abc"], 1)
        proof, name, value, bound, refusal = bounded_fields(link, chain)[field]
        data = encode_proof(proof)
        at = reference.starts(data)[name]
        assert reference.decode(data[at : at + 4], "u32") == value
        with pytest.raises(WireError, match=f"^{refusal}:? {bound + 1}( exceeds limit)?$"):
            decode_proof(data[:at] + reference.write("u32", bound + 1) + data[at + 4 :])


NO_ENTRY = "a link or hub proof needs a holder chain entry and a window round"
PREV_DIGESTS = "a proof holds each issuer's prev digest in its first window round only"


def shape_rules(link, hub, chain):
    """Each shape a proof record refuses when it is made, by rule: the
    reader's text, the record made from its fields, the record made by
    ``dataclasses.replace`` on an honest one, and hand-written bytes of a
    proof of that shape, or None where the format cannot write it."""
    held, chain_link, rnd = link.holder_chain, link.holder_chain.links[0], link.rounds[0]
    no_receipts = tuple(r._replace(receipts=()) for r in hub.rounds)
    moved = (hub.manifest_proofs[0]._replace(leaf_index=3),) + hub.manifest_proofs[1:]
    off_index = chain_link.proof._replace(leaf_index=1)
    two = (rnd._replace(receipts=rnd.receipts * 2),) + link.rounds[1:]
    unwritten = lambda proof: (proof.rounds[0]._replace(prev_digests=proof.rounds[0].prev_digests[1:]),) + proof.rounds[1:]
    repeated = lambda proof: proof.rounds[:1] * 2 + proof.rounds[2:]
    envelope = lambda proof: encode_proof(proof)[:5]
    return {
        "holder-chain-of-no-commitment": (
            NO_ENTRY,
            lambda: HolderChain((), ()),
            lambda: dataclasses.replace(held, commitments=(), links=()),
            envelope(link) + emptied_bytes(link, "holder_chain"),
        ),
        "holder-chain-of-a-link-too-few": (
            "a holder chain holds one link per commitment after the first",
            lambda: HolderChain(held.commitments, held.links[1:]),
            lambda: dataclasses.replace(held, links=held.links[1:]),
            None,  # the commitments' count is the links'
        ),
        "chain-link-off-index-0": (
            "path at leaf 1, not at leaf 0",
            lambda: ChainLink(off_index, encoding=chain_link.to_bytes()),
            lambda: dataclasses.replace(chain_link, proof=off_index),
            None,  # a link's index is not written
        ),
        "proof-of-no-window-round": (
            NO_ENTRY,
            lambda: LinkProof(link.issuer_id, held, ()),
            lambda: dataclasses.replace(hub, rounds=()),
            envelope(hub) + emptied_bytes(hub, "rounds"),
        ),
        "link-round-of-two-receipts": (
            "a link proof round holds one receipt's paths",
            lambda: LinkProof(link.issuer_id, held, two),
            lambda: dataclasses.replace(link, rounds=two),
            None,  # a link proof reads one receipt's paths a round
        ),
        "first-round-without-its-prev-digests": (
            PREV_DIGESTS,
            lambda: LinkProof(link.issuer_id, held, unwritten(link)),
            lambda: dataclasses.replace(hub, rounds=unwritten(hub)),
            None,  # the first round's paths are read with their prev digests
        ),
        "later-round-with-prev-digests": (
            PREV_DIGESTS,
            lambda: LinkProof(link.issuer_id, held, repeated(link)),
            lambda: dataclasses.replace(hub, rounds=repeated(hub)),
            None,  # a later round's paths are read without
        ),
        "hub-of-an-empty-manifest": (
            "a hub proof needs at least one link",
            lambda: HubProof((), hub.manifest_proofs, hub.holder_chain, no_receipts),
            lambda: dataclasses.replace(hub, manifest=(), rounds=no_receipts),
            reference.encode(hub, manifest_ids=(), window_rounds=without_issuers(hub.rounds)),
        ),
        "manifest-path-off-index-2": (
            "path at leaf 3, not at leaf 2",
            lambda: HubProof(hub.manifest, moved, hub.holder_chain, hub.rounds),
            lambda: dataclasses.replace(hub, manifest_proofs=moved),
            None,  # a manifest path's index is not written
        ),
        "chain-of-no-hop": (
            "a chain proof needs at least one hop",
            lambda: ChainProof(()),
            lambda: dataclasses.replace(chain, hops=()),
            envelope(chain) + prefix(0),
        ),
    }


class TestEachShapeRuleInOnePlace:
    """A proof record refuses, when it is made, each shape its reader
    refuses or cannot make, with one text however it is made: from its
    fields, by ``dataclasses.replace``, or by the decoder.  So no verifier
    meets one."""

    @pytest.mark.parametrize(
        "rule,way",
        [
            (rule, way)
            for rule, decodable in [
                ("holder-chain-of-no-commitment", True),
                ("holder-chain-of-a-link-too-few", False),
                ("chain-link-off-index-0", False),
                ("proof-of-no-window-round", True),
                ("link-round-of-two-receipts", False),
                ("first-round-without-its-prev-digests", False),
                ("later-round-with-prev-digests", False),
                ("hub-of-an-empty-manifest", True),
                ("manifest-path-off-index-2", False),
                ("chain-of-no-hop", True),
            ]
            for way in (["fields", "replace", "decoder"] if decodable else ["fields", "replace"])
        ],
    )
    def test_one_text_however_made(self, pair, fan, relay, rule, way):
        path = [relay.id_of("a"), relay.id_of("b"), relay.id_of("c")]
        chain = build_chain_proof(relay.records_by_id(), relay.receipts_by_id(), path, 1)
        text, make, replace, data = shape_rules(link_for(pair, "holder", "issuer", (1, 2)), hub_for(fan), chain)[rule]
        made = {"fields": make, "replace": replace, "decoder": lambda: decode_proof(data)}[way]
        with pytest.raises(WireError, match=f"^{re.escape(text)}$"):
            made()
