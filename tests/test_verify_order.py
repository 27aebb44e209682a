"""Verifiers check every hash, trust and inclusion fact first, then one
signature per holder chain, its head's.

The verdict must not depend on that order: for a proof with one fault it is
the verdict the checks give when each head is checked where its chain's
links are, reason, wrapper and detail included.  That sequential reference
is the verifiers themselves with ``verify_chain_entries``, links then head,
in place of their links rule, so no second copy of the verifier is kept
for it.

The checks walk a proof round by round: each window round's submission
once, rebuilt and hashed (its signature is not checked), then every
issuer's receipt paths for that round, then the round's evidence.  A
receipt is its round's submission and its paths with the verifier's
trusted copy of the issuer commitment, whose signature was checked where
it entered trust, so it records no signature check of its own.  On
authentic trust logs the verdict must be the one the rule that also
checks every issuer signature gives (``_parent_rule``).
"""

import dataclasses
from pathlib import Path

import pytest

from entmesh import entangle
from entmesh import node as node_module
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
from entmesh.keys import Ed25519Scheme
from entmesh.node import (
    ChainLink,
    HolderChain,
    KeyDirectory,
    Verdict,
    commitment_digest,
    evidence_leaf_index,
    round_leaves,
    submission_of,
)
from entmesh.simnet import Simulation, chain, fan, federated
from entmesh.wire import WireError

from adversary import (
    chain_of_links,
    compose_in_manifest_order,
    every_entry_rule,
    forged_commitment,
    forge_at,
    forged_round_submission,
    hub_proof_in_manifest_order,
    link_over_a_submission_signed_by,
    link_over_an_issuer_fork,
    prev_leaf,
    signed_tree,
    swap,
    with_chain,
    with_round,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _run(name: str):
    sim = make_simulation(load_config(SCENARIOS / name))
    sim.run()
    return sim


def _logs(sim):
    return {
        sim.nodes[label].node_id: {record.round: record.commitment for record in sim.nodes[label].records}
        for label in sim.topology.anchors
    }


def _trust(proof, sim):
    """What the CLI hands the verifier: every anchor log for a hub proof, else
    the log of the issuer or anchor the proof names (None if there is none)."""
    logs = _logs(sim)
    if isinstance(proof, HubProof):
        return logs
    return logs.get(proof.anchor_id if isinstance(proof, ChainProof) else proof.issuer_id)


def _verify(proof, sim, trust=None):
    verify = {HubProof: verify_hub, ChainProof: verify_chain}.get(type(proof), verify_link)
    return verify(proof, trust or _trust(proof, sim), sim.directory)


def _sequential(proof, sim, trust=None):
    """The verifier with each holder chain's head checked where its links
    are, as the audits check a chain.  The heads, all good by then, are
    checked again at the end."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entangle, "verify_chain_links", node_module.verify_chain_entries)
        return _verify(proof, sim, trust)


def _parent_rule(proof, sim):
    """The verifier with every receipt's issuer signature checked as well,
    as ``check_receipt`` checks it first, in the place its inclusion checks run."""
    inclusions = entangle._check_receipt_inclusions

    def check_receipt(submission_hash, paths, c, call):
        if not call.verify_commitment(c):
            return Verdict.failed("BadSignature", f"issuer {c.node_id.hex()}")
        return inclusions(submission_hash, paths, c, call)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entangle, "_check_receipt_inclusions", check_receipt)
        return _verify(proof, sim)


def _forged_trust(log, round_no):
    """``log`` with the commitment at ``round_no`` differing only in its signature."""
    return {**log, round_no: forged_commitment(log[round_no])}


@pytest.fixture
def ed25519_calls(monkeypatch):
    calls = []
    verify = Ed25519Scheme.verify
    monkeypatch.setattr(Ed25519Scheme, "verify", lambda self, *args: calls.append(args) or verify(self, *args))
    return calls


@pytest.fixture(scope="module")
def runs():
    hub_sim, chain_sim, link_sim = _run("hub.yaml"), _run("chain.yaml"), _run("identity.yaml")
    center = hub_sim.nodes["center"]
    ids = [chain_sim.nodes[label].node_id for label in chain_sim.path_to_anchor("h0")]
    h1 = link_sim.nodes["h1"]
    return {
        "hub": (build_hub_proof(center.records, (1, 4), center.receipt_log), hub_sim),
        "chain": (build_chain_proof(chain_sim.records_by_id(), chain_sim.receipts_by_id(), ids, 1, 2), chain_sim),
        "link": (build_link_proof(h1.records, link_sim.nodes["hub"].node_id, (6, 7), h1.receipt_log), link_sim),
    }


class TestSignatureCounts:
    def test_fan40_hub_checks_each_distinct_signature_once(self, ed25519_calls):
        sim = Simulation(fan(40), rounds=8, seed=3).run()
        center = sim.nodes["center"]
        proof = build_hub_proof(center.records, (1, 4), center.receipt_log)
        ed25519_calls.clear()
        verdict = verify_hub(proof, _logs(sim), sim.directory)
        assert verdict
        # The holder chain's head alone: each round's submission is hashed,
        # not checked (5 when it was checked once per round, 10 when each of
        # the chain's 6 commitments was too, 166 obligations when the
        # submission was met once per issuer).
        assert verdict.signatures_checked == 1 == len(ed25519_calls)
        # 5 holder chain links, 160 receipts' two paths each, 4 manifest
        # proofs and one evidence range proof per round (160 evidence paths
        # before; 6 chain entries' paths, the first linking to nothing, before EMP9).
        assert verdict.inclusion_proofs_checked == 5 + 320 + 4 + 4 == 333
        # Each window round's submission once, not once per issuer (63,324 B when repeated).
        assert len(encode_proof(proof)) <= 41_600

    def test_holder_chain_by_round_built_once_per_proof_part(self, monkeypatch):
        # A proof walks its own holder chain by position, so a round ->
        # commitment view is built only of a chain hop that vouches for the
        # hop before it: none for a hub, one per hop but the first for a chain.
        built = []
        by_round = entangle._by_round
        monkeypatch.setattr(entangle, "_by_round", lambda entries: built.append(entries) or by_round(entries))
        sim = Simulation(fan(40), rounds=8, seed=3).run()
        center = sim.nodes["center"]
        assert verify_hub(build_hub_proof(center.records, (1, 4), center.receipt_log), _logs(sim), sim.directory)
        assert built == []
        sim = Simulation(chain(4), rounds=10, seed=3).run()
        ids = [sim.nodes[label].node_id for label in sim.path_to_anchor("h0")]
        proof = build_chain_proof(sim.records_by_id(), sim.receipts_by_id(), ids, 2, 2)
        assert verify_chain(proof, _logs(sim)[proof.anchor_id], sim.directory)
        assert [id(entries) for entries in built] == [id(hop.holder_chain.commitments) for hop in proof.hops[1:]]

    def test_chain_of_four_hops_shares_the_vouched_commitments(self):
        sim = Simulation(chain(4), rounds=10, seed=3).run()
        ids = [sim.nodes[label].node_id for label in sim.path_to_anchor("h0")]
        proof = build_chain_proof(sim.records_by_id(), sim.receipts_by_id(), ids, 2, 2)
        verdict = verify_chain(proof, _logs(sim)[proof.anchor_id], sim.directory)
        assert verdict
        # Four hops over two rounds: each hop's head (12 when each hop's two
        # submissions were checked too).
        assert verdict.signatures_checked == 4

    def test_link_proof_repeats_no_signature(self, runs):
        proof, sim = runs["link"]
        verdict = _verify(proof, sim)
        assert verdict
        # Two rounds: the holder chain's head alone.
        assert verdict.signatures_checked == 1

    @pytest.mark.parametrize("n", [5, 10, 20])
    def test_hub_checks_do_not_grow_with_issuers(self, ed25519_calls, n):
        # The holder chain's head alone, whatever the number of issuers and
        # rounds.
        sim = Simulation(fan(n), rounds=7, seed=3).run()
        center = sim.nodes["center"]
        for w in (1, 2, 4):
            proof = build_hub_proof(center.records, (1, w), center.receipt_log)
            ed25519_calls.clear()
            verdict = verify_hub(proof, _logs(sim), sim.directory)
            assert verdict
            assert verdict.signatures_checked == 1 == len(ed25519_calls)
            assert verdict.inclusion_proofs_checked == (w + 1) + 2 * n * w + w + w

    @pytest.mark.parametrize("hops", [1, 2, 3, 4])
    def test_chain_checks_grow_linearly_in_hops_times_window(self, ed25519_calls, hops):
        # Per hop: its holder chain's head; the folds grow with the window.
        sim = Simulation(chain(hops), rounds=10, seed=3).run()
        ids = [sim.nodes[label].node_id for label in sim.path_to_anchor("h0")]
        assert len(ids) == hops + 1
        for w in (1, 2):
            proof = build_chain_proof(sim.records_by_id(), sim.receipts_by_id(), ids, 1, w)
            ed25519_calls.clear()
            verdict = verify_chain(proof, _logs(sim)[proof.anchor_id], sim.directory)
            assert verdict
            assert verdict.signatures_checked == hops == len(ed25519_calls)
            assert verdict.inclusion_proofs_checked == hops * ((w + 1) + 2 * w + w)

    def test_unbound_keys_fail_without_ed25519(self, runs, ed25519_calls):
        proof, sim = runs["hub"]
        _, other = runs["chain"]
        verdict = verify_hub(proof, _trust(proof, sim), other.directory)
        # The first signature met is the head's, at round 4 + 2.
        assert (verdict.reason, verdict.detail) == ("LinkFailed", "holder chain: BadSignature (round 6)")
        assert ed25519_calls == []

    @pytest.mark.parametrize(
        "kind, missing, reason, detail, folds",
        [
            pytest.param("hub", "center", "LinkFailed", "holder chain: BadSignature (round 5)", 4, id="hub-center"),
            pytest.param("chain", "h0", "BrokenHop", "hop 0: BadSignature (round 4)", 30, id="chain-h0"),
            pytest.param("chain", "m3-0", "BrokenHop", "hop 1: BadSignature (round 5)", 21, id="chain-m3-0"),
        ],
    )
    def test_head_with_no_key_bound_fails_at_its_links(self, runs, ed25519_calls, kind, missing, reason, detail, folds):
        # One node's key is missing from the directory.  Its holder chain's
        # head fails where the chain's links are checked, before any other
        # head is checked, so no Ed25519 check is made.
        proof, sim = runs[kind]
        if kind == "hub":
            center = sim.nodes["center"]
            proof = build_hub_proof(center.records, (1, 3), center.receipt_log)
        directory = KeyDirectory()
        for label, node in sim.nodes.items():
            (_, genesis), *rebinds = sim.directory.bindings_of(node.node_id)
            if label != missing:
                directory.register(node.node_id, genesis)
                for from_round, key in rebinds:
                    directory.rebind(node.node_id, key, from_round)
        verify = verify_hub if kind == "hub" else verify_chain
        verdict = verify(proof, _trust(proof, sim), directory)
        assert (verdict.reason, verdict.detail) == (reason, detail)
        assert (verdict.signatures_checked, verdict.inclusion_proofs_checked) == (0, folds)
        assert ed25519_calls == []

    @pytest.mark.parametrize("kind, chains", [("hub", 1), ("chain", 4), ("link", 1)])
    def test_each_holder_chain_is_linked_then_its_head_checked_once(self, runs, monkeypatch, kind, chains):
        # Every holder chain's links, in the order the parts are checked
        # (a chain's hops from the anchor side), then each head, in that order.
        met = []
        for name in ("verify_chain_links", "verify_chain_head"):
            rule = getattr(entangle, name)
            monkeypatch.setattr(entangle, name, lambda chain, *rest, name=name, rule=rule: met.append((name, chain)) or rule(chain, *rest))
        proof, sim = runs[kind]
        assert _verify(proof, sim)
        chains_checked = [hop.holder_chain for hop in reversed(proof.hops)] if kind == "chain" else [proof.holder_chain]
        assert len(chains_checked) == chains
        assert met == [("verify_chain_links", c) for c in chains_checked] + [("verify_chain_head", c) for c in chains_checked]

    @pytest.mark.parametrize("where", ["evidence-path", "chain-link-path"])
    def test_hashed_byte_flip_rejected_without_a_signature_check(self, runs, ed25519_calls, where):
        proof, sim = runs["hub"]
        path = proof.rounds[-1].evidence_proof if where == "evidence-path" else proof.holder_chain.links[1].proof
        first, *rest = path.siblings
        flipped = path._replace(siblings=(bytes([first[0] ^ 1]) + first[1:], *rest))
        if where == "evidence-path":
            bad = with_round(proof, -1, evidence_proof=flipped)
        else:
            bad = with_chain(proof, links=swap(proof.holder_chain.links, 1, ChainLink(flipped)))
        good_blob, bad_blob = encode_proof(proof), encode_proof(bad)
        assert len(good_blob) == len(bad_blob)
        assert sum(bin(a ^ b).count("1") for a, b in zip(good_blob, bad_blob)) == 1
        ed25519_calls.clear()
        verdict = _verify(decode_proof(bad_blob), sim)
        assert not verdict
        assert verdict.signatures_checked == 0 == len(ed25519_calls)
        reference = _sequential(bad, sim)
        assert (verdict.reason, verdict.detail) == (reference.reason, reference.detail)


class TestForgedSignatureKeepsItsReason:
    """A forged signature is reported where the sequential checks meet it.
    Of a holder chain only the head's signature is checked: an earlier
    commitment's is hashed into the first leaf of the next one's tree, which
    that one's link places there, so forging it breaks the chain there.  A window round's signature is hashed into the
    submission leaf its receipts prove, so forging it fails the round's
    first receipt."""

    def _check(self, proof, sim, reason, detail, trust=None):
        verdict = _verify(proof, sim, trust)
        assert (verdict.ok, verdict.reason, verdict.detail) == (False, reason, detail)
        reference = _sequential(proof, sim, trust)
        assert (reference.ok, reference.reason, reference.detail) == (False, reason, detail)

    @pytest.mark.parametrize("index", [0, -1])
    def test_hub_holder_chain(self, runs, index):
        proof, sim = runs["hub"]
        bad = with_chain(proof, commitments=forge_at(proof.holder_chain.commitments, index, forged_commitment))
        r = proof.holder_chain.commitments[index].round
        inner = f"BadSignature (round {r})" if index == -1 else f"ChainBreak (round {r + 1} does not chain)"
        self._check(bad, sim, "LinkFailed", f"holder chain: {inner}")

    def test_hub_issuer_receipt(self, runs):
        # Every issuer's receipt shares the round's submission, which is the
        # holder's: the first issuer's round-2 receipt no longer proves it.
        proof, sim = runs["hub"]
        bad = forged_round_submission(proof, 1)
        inner = "ReceiptInvalid (submission leaf unproven for round 2)"
        self._check(bad, sim, "LinkFailed", f"{proof.manifest[0].hex()}: {inner}")

    @pytest.mark.parametrize("record", ["receipt", "chain-entry"])
    def test_chain_inner_hop(self, runs, record):
        proof, sim = runs["chain"]
        hop = proof.hops[1]
        if record == "receipt":
            hop = forged_round_submission(hop, 0)
            inner = "ReceiptInvalid (submission leaf unproven for round 2)"
        else:
            hop = with_chain(hop, commitments=forge_at(hop.holder_chain.commitments, -1, forged_commitment))
            inner = "BadSignature (round 5)"
        bad = ChainProof(hops=swap(proof.hops, 1, hop))
        self._check(bad, sim, "BrokenHop", f"hop 1: {inner}")

    def test_chain_last_hop(self, runs):
        proof, sim = runs["chain"]
        last = proof.hops[-1]
        hop = with_chain(last, commitments=forge_at(last.holder_chain.commitments, -1, forged_commitment))
        bad = ChainProof(hops=proof.hops[:-1] + (hop,))
        inner = f"round {last.holder_chain.commitments[-1].round}"
        self._check(bad, sim, "BrokenHop", f"hop {len(proof.hops) - 1}: BadSignature ({inner})")

    @pytest.mark.parametrize("kind", ["hub", "chain", "link"])
    def test_head_at_a_leaf_count_its_link_folds_at(self, runs, kind):
        # A head's link places leaf 0, whose path is the same at every leaf
        # count n with the same ceil(log2 n), so only the head's signature
        # refuses another of those counts.  Where the last window round's
        # evidence fold meets such a count before the heads are checked, the
        # verifier checks that signature there, as the sequential checks do;
        # without that, it would name the evidence fold.
        proof, sim = runs[kind]
        parts = proof.hops if kind == "chain" else (proof,)
        evidence_first = 0
        for hop, part in enumerate(parts):
            head = part.holder_chain.commitments[-1]
            top = 1 << (head.leaf_count - 1).bit_length()
            inner = f"BadSignature (round {head.round})"
            reason, detail = {
                "hub": ("LinkFailed", f"holder chain: {inner}"),
                "chain": ("BrokenHop", f"hop {hop}: {inner}"),
                "link": ("BadSignature", f"round {head.round}"),
            }[kind]
            for n in range(top // 2 + 1, top + 1):
                if n == head.leaf_count:
                    continue
                counted = dataclasses.replace(head, leaf_count=n)
                bad = with_chain(part, commitments=swap(part.holder_chain.commitments, -1, counted))
                if kind == "chain":
                    bad = ChainProof(hops=swap(proof.hops, hop, bad))
                self._check(bad, sim, reason, detail)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(entangle, "_folds_at_another_leaf_count", lambda *args: False)
                    without = _verify(bad, sim)
                evidence_first += "EvidenceInvalid" in f"{without.reason} {without.detail}"
        # The link's evidence leaf, 3 of 5, sits in the first 4 leaves, where
        # no count of 5 to 8 changes its fold: its head fails last either way.
        assert evidence_first == {"hub": 3, "chain": 10, "link": 0}[kind]

    def test_link_receipt(self, runs):
        proof, sim = runs["link"]
        bad = forged_round_submission(proof, 1)
        self._check(bad, sim, "ReceiptInvalid", "submission leaf unproven for round 7")

    def test_link_holder_chain(self, runs):
        proof, sim = runs["link"]
        bad = with_chain(proof, commitments=forge_at(proof.holder_chain.commitments, 1, forged_commitment))
        self._check(bad, sim, "ChainBreak", "round 8 does not chain")

    # A proof carries no issuer commitment: each receipt takes the
    # verifier's trusted copy.  A copy that differs from the commitment the
    # issuer signed only in its signature still proves the receipt's leaves,
    # but the receipt it makes is not the one the holder retained.
    def test_link_issuer_commitment(self, runs):
        proof, sim = runs["link"]
        trust = _forged_trust(_trust(proof, sim), 8)
        self._check(proof, sim, "EvidenceInvalid", "receipt for round 7 not retained in round 9", trust)

    def test_hub_issuer_commitment(self, runs):
        proof, sim = runs["hub"]
        issuer = proof.manifest[2]
        trust = {**_trust(proof, sim), issuer: _forged_trust(_trust(proof, sim)[issuer], 5)}
        self._check(proof, sim, "EvidenceInvalid", "receipts for round 4 not retained in round 6", trust)

    @pytest.mark.parametrize("hop", [-1, 1])
    def test_chain_issuer_commitment(self, runs, hop):
        proof, sim = runs["chain"]
        r = proof.hops[hop].window_end + 1
        if hop == -1:
            # The last hop's copy is the anchor's trusted commitment.
            inner = f"EvidenceInvalid (receipt for round {r - 1} not retained in round {r + 1})"
            self._check(proof, sim, "BrokenHop", f"hop {len(proof.hops) - 1}: {inner}", _forged_trust(_trust(proof, sim), r))
        else:
            # An inner hop's copy is the next hop's holder chain commitment, which
            # the same call links to that chain's signed head before it
            # vouches for the hop: a forged one breaks that chain.
            vouching = proof.hops[hop + 1]
            index = r - vouching.window_start
            assert index < len(vouching.holder_chain.commitments) - 1
            forged = with_chain(vouching, commitments=forge_at(vouching.holder_chain.commitments, index, forged_commitment))
            bad = ChainProof(hops=swap(proof.hops, hop + 1, forged))
            self._check(bad, sim, "BrokenHop", f"hop {hop + 1}: ChainBreak (round {r + 1} does not chain)")


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
def test_single_bit_flips_keep_the_sequential_verdict(runs, kind):
    proof, sim = runs[kind]
    honest, parent = _verify(proof, sim), _parent_rule(proof, sim)
    assert honest and parent
    assert parent.signatures_checked > honest.signatures_checked
    blob = encode_proof(proof)
    bits = len(blob) * 8
    for position in range(3, bits, bits // 400):
        mutated = bytearray(blob)
        mutated[position // 8] ^= 1 << (position % 8)
        try:
            bad = decode_proof(bytes(mutated))
        except (WireError, ValueError):
            continue
        if _trust(bad, sim) is None:
            continue
        verdict = _verify(bad, sim)
        for reference in (_sequential(bad, sim), _parent_rule(bad, sim)):
            assert (verdict.ok, verdict.reason, verdict.detail) == (reference.ok, reference.reason, reference.detail)


class TestProofsNoBuilderMakes:
    """Proofs of honest links composed or framed as no builder would: each
    check that refuses one names its own fault, where without it the proof
    would verify, fail for another reason or raise."""

    def test_unshifted_chain_is_a_broken_hop(self):
        # Every hop over window [1, 2]: without the shift check the chain
        # verifies against the anchor at round 3, where the honest one needs round 6.
        sim = Simulation(chain(4), rounds=10, seed=0).run()
        path = sim.path_to_anchor("h0")
        unshifted = chain_of_links(sim, [(h, i, (1, 2)) for h, i in zip(path, path[1:])])
        trust = {r: c for r, c in _logs(sim)[sim.nodes[path[-1]].node_id].items() if r <= 3}
        verdict = verify_chain(unshifted, trust, sim.directory)
        assert (verdict.reason, verdict.detail) == ("BrokenHop", "hop 1 window does not shift by one round per hop")

    def test_hops_from_two_branches_are_a_broken_hop(self):
        # h0 -> m1-0 then m1-1 -> root, windows shifted as a chain's are.
        sim = Simulation(federated(2, 2, 2), rounds=8, seed=0).run()
        proof = chain_of_links(sim, [("h0", "m1-0", (1, 1)), ("m1-1", "root", (2, 2))])
        verdict = verify_chain(proof, _logs(sim)[sim.nodes["root"].node_id], sim.directory)
        assert (verdict.reason, verdict.detail) == ("BrokenHop", "hop 0 issuer is not hop 1 holder")

    def test_manifest_path_at_another_index_is_misplaced(self, runs):
        # A manifest path carries no index on the wire, so a hub that holds one
        # off index 2 cannot be made, from its fields or by replacing them:
        # no verifier meets one.
        proof, _ = runs["hub"]
        moved = forge_at(proof.manifest_proofs, 0, lambda p: p._replace(leaf_index=3))
        with pytest.raises(WireError, match="^path at leaf 3, not at leaf 2$"):
            HubProof(proof.manifest, moved, proof.holder_chain, proof.rounds)
        with pytest.raises(WireError, match="^path at leaf 3, not at leaf 2$"):
            dataclasses.replace(proof, manifest_proofs=moved)

    @pytest.mark.parametrize("fault", ["unsorted", "duplicated"])
    def test_holder_signed_manifest_out_of_canonical_order(self, manual_net, monkeypatch, fault):
        # The holder signs rounds whose manifest leaf lists its issuers out of
        # canonical order, and retains each round's receipts in that order.
        # Every hash, signature and evidence run then checks out: without the
        # order check the hub verifies.
        net = manual_net(["c", "p", "q"], [("c", "p"), ("c", "q")])
        center = net.nodes["c"]
        low, high = sorted((net.id_of("p"), net.id_of("q")))
        manifest = (high, low) if fault == "unsorted" else (low, low, high)
        monkeypatch.setattr(node_module, "validate_state", lambda state: None)
        compose_in_manifest_order(center, manifest)
        net.run(6)
        proof = hub_proof_in_manifest_order(center, manifest, (1, 2))
        trust = {net.id_of(label): net.commitments_of(label) for label in ("p", "q")}
        verdict = verify_hub(decode_proof(encode_proof(proof)), trust, net.directory)
        assert (verdict.reason, verdict.detail) == ("ManifestMismatch", "manifest not in canonical order")

    def test_trust_log_with_an_equivocating_issuers_fork_breaks_the_issuer_chain(self, manual_net):
        # The issuer signs a second round-2 commitment and a round-3 tree on
        # top of it that entangles the holder's round-2 submission; the trust
        # log holds that forked round 3 beside the real round 2.  The holder
        # signs a round-4 tree retaining the forked receipt.  Each receipt
        # then proves against its trusted commitment and the evidence folds:
        # without the continuity check the link verifies.
        net = manual_net(["h", "i"], [("h", "i")]).run(6)
        bad, trust = link_over_an_issuer_fork(net, "h", "i")
        verdict = verify_link(decode_proof(encode_proof(bad)), trust, net.directory)
        assert (verdict.reason, verdict.detail) == ("ChainBreak", "issuer chain breaks before round 3")


class TestTheHeadVouchesForItsChain:
    """A holder chain's one checked signature is its head's, under the key
    bound at the head's round (docs/FORMATS.md, "Checking a holder chain")."""

    @pytest.mark.parametrize("signer", ["holder", "issuer"])
    def test_inner_entry_with_a_bad_signature_under_a_signed_head(self, manual_net, signer):
        # The round-3 entry's signature is forged, and a round-4 head that
        # chains from it is signed over the same leaves with a new first
        # leaf.  Signed by the holder, the head covers the forged entry and
        # the link verifies, where the every-entry rule refuses the chain;
        # signed by another key, the head is refused.
        net = manual_net(["h", "i"], [("h", "i")]).run(6)
        holder, issuer = net.nodes["h"], net.nodes["i"]
        proof = build_link_proof(holder.records, issuer.node_id, (1, 2), holder.receipt_log)
        forged = forged_commitment(proof.holder_chain.commitments[2])
        retaining = holder.records[4].state
        leaves = [prev_leaf(commitment_digest(forged)), *round_leaves(retaining)[1:]]
        tree, head = signed_tree(holder, 4, leaves)
        if signer == "issuer":
            head = dataclasses.replace(head, signature=issuer.keypair.sign(head.message()))
        at = evidence_leaf_index(retaining, issuer.node_id, 2)
        last = proof.rounds[1]._replace(evidence_proof=tree.prove_range(at, at + 1))
        held = proof.holder_chain
        chain = HolderChain((*held.commitments[:2], forged, head), (*held.links[:2], ChainLink(tree.prove_inclusion(0))))
        bad = dataclasses.replace(proof, holder_chain=chain, rounds=(proof.rounds[0], last))
        bad = decode_proof(encode_proof(bad))
        verdict = verify_link(bad, net.commitments_of("i"), net.directory)
        if signer == "holder":
            assert verdict and verdict.signatures_checked == 1
            reference = every_entry_rule(bad.holder_chain, net.directory)
            assert (reference.reason, reference.detail) == ("BadSignature", "round 3")
        else:
            assert (verdict.reason, verdict.detail, verdict.signatures_checked) == ("BadSignature", "round 4", 1)

    def test_link_across_a_key_rebind_verifies_under_the_heads_key(self, runs):
        # identity.yaml: h1 recovers its key at round 7.  The link's window
        # [6, 7] and its holder chain, rounds 6 to 9, cross that rebind.
        proof, sim = runs["link"]
        assert [r for r, _ in sim.directory.bindings_of(proof.holder_id)] == [0, 7]
        assert proof.holder_chain.commitments[0].round < 7 <= proof.window_end
        verdict = _verify(proof, sim)
        assert verdict and verdict.signatures_checked == 1
        assert every_entry_rule(proof.holder_chain, sim.directory)
        # Under h1's genesis key alone the head, the first signature met, fails.
        genesis = KeyDirectory()
        for node in sim.nodes.values():
            genesis.register(node.node_id, sim.directory.bindings_of(node.node_id)[0][1])
        verdict = verify_link(proof, _trust(proof, sim), genesis)
        assert (verdict.reason, verdict.detail, verdict.signatures_checked) == ("BadSignature", "round 9", 1)

    @pytest.mark.parametrize("head", ["holder", "other key"])
    def test_round_submission_signed_with_another_key(self, manual_net, ed25519_calls, head):
        # Round 2's Submission carries the issuer's signature; the issuer
        # entangled it and the holder retained its receipt at round 4.  Its
        # signature is hashed, not checked: under a head the holder signed
        # the link verifies with the head's one check, and under a head
        # signed with another key that head is refused.
        net = manual_net(["h", "i"], [("h", "i")]).run(6)
        holder, issuer = net.nodes["h"], net.nodes["i"]
        bad, trust = link_over_a_submission_signed_by(net, "h", "i", issuer)
        assert not net.directory.verify_submission(submission_of(bad.holder_chain.commitments[1], bad.rounds[1].signature))
        c = bad.holder_chain.commitments[-1]
        if head == "other key":
            c = dataclasses.replace(c, signature=issuer.keypair.sign(c.message()))
            bad = with_chain(bad, commitments=swap(bad.holder_chain.commitments, -1, c))
        ed25519_calls.clear()
        verdict = verify_link(decode_proof(encode_proof(bad)), trust, net.directory)
        if head == "holder":
            assert verdict and verdict.signatures_checked == 1 == len(ed25519_calls)
            assert ed25519_calls == [(holder.keypair.verify_key, c.message(), c.signature)]
        else:
            assert (verdict.reason, verdict.detail, verdict.signatures_checked) == ("BadSignature", "round 4", 1)

    @pytest.mark.parametrize("kind", ["hub", "chain", "link"])
    def test_flipped_round_signature_byte_is_unproven_before_any_check(self, runs, ed25519_calls, kind):
        # One bit of a window round's signature, in the encoded proof: the
        # rebuilt submission is not the one the issuer entangled, so the
        # round's first receipt fails to prove it, after no Ed25519 check.
        proof, sim = runs[kind]
        part = proof.hops[1] if kind == "chain" else proof
        r = part.window_start + 1
        blob = encode_proof(proof)
        assert blob.count(part.rounds[1].signature) == 1
        at = blob.index(part.rounds[1].signature) + 5
        bad = decode_proof(blob[:at] + bytes([blob[at] ^ 4]) + blob[at + 1 :])
        ed25519_calls.clear()
        verdict = _verify(bad, sim)
        expected = ("ReceiptInvalid", f"submission leaf unproven for round {r}")
        if kind != "link":
            wrapper, where = ("LinkFailed", proof.manifest[0].hex()) if kind == "hub" else ("BrokenHop", "hop 1")
            expected = (wrapper, f"{where}: {expected[0]} ({expected[1]})")
        assert (verdict.reason, verdict.detail) == expected
        assert verdict.signatures_checked == 0 == len(ed25519_calls)

    def test_every_entry_rule_checks_each_entry_once(self, runs, ed25519_calls):
        # The head by verify_chain_head, every other entry after it.
        proof, sim = runs["link"]
        ed25519_calls.clear()
        assert every_entry_rule(proof.holder_chain, sim.directory)
        messages = [message for _, message, _ in ed25519_calls]
        chain = [c.message() for c in proof.holder_chain.commitments]
        assert messages == chain[-1:] + chain[:-1]


class TestRepeatsAreSkippedChecks:
    """``signatures_checked`` is the number of Ed25519 checks the call made,
    each holder chain's head once: none when a hash, trust or inclusion
    check fails first."""

    def test_failure_before_any_signature_repeats_nothing(self, runs, ed25519_calls):
        # The verifier holds no trusted commitments for the last issuer: the
        # hub fails on that lookup after its holder chain met its head, so
        # nothing is checked.
        proof, sim = runs["hub"]
        issuer = proof.manifest[-1]
        trust = {i: log for i, log in _trust(proof, sim).items() if i != issuer}
        verdict = _verify(proof, sim, trust)
        assert (verdict.reason, verdict.detail) == ("TrustedRootUnavailable", f"no trusted commitments for {issuer.hex()}")
        assert verdict.signatures_checked == 0
        assert ed25519_calls == []
        # With only its round-2 commitment dropped, the last issuer's round-1
        # receipt fails after the round's submission was hashed: nothing is
        # checked either.
        trust = _trust(proof, sim)
        trust = {**trust, issuer: {r: c for r, c in trust[issuer].items() if r != 2}}
        verdict = _verify(proof, sim, trust)
        assert (verdict.reason, verdict.detail) == (
            "LinkFailed",
            f"{issuer.hex()}: TrustedRootUnavailable (no trusted issuer commitment for round 2)",
        )
        assert verdict.signatures_checked == 0
        assert ed25519_calls == []

    @pytest.mark.parametrize("kind", ["hub", "chain", "link"])
    def test_repeats_match_the_first_pass(self, runs, ed25519_calls, kind):
        # Reference: the Ed25519 checks actually made.
        proof, sim = runs[kind]
        blob = encode_proof(proof)
        bits = len(blob) * 8
        for position in [None, *range(3, bits, bits // 300)]:
            mutated = bytearray(blob)
            if position is not None:
                mutated[position // 8] ^= 1 << (position % 8)
            try:
                bad = decode_proof(bytes(mutated))
            except (WireError, ValueError):
                continue
            if _trust(bad, sim) is None:
                continue
            ed25519_calls.clear()
            verdict = _verify(bad, sim)
            assert verdict.signatures_checked == len(ed25519_calls)
