"""Node state machine: leaf layout, commitments, receipts, chaining."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmesh.entangle import build_link_proof
from entmesh.hashtree import ZERO_DIGEST, InclusionProof, leaf_hash, sha256
from entmesh.keys import keypair_from_seed
from entmesh.node import (
    LEAF_ENTANGLED,
    LEAF_EVIDENCE,
    LEAF_MANIFEST,
    LEAF_PAYLOAD,
    LEAF_PREV,
    FIXED_LEAVES,
    MANIFEST_LEAF_INDEX,
    ChainLink,
    Commitment,
    HolderChain,
    InvariantViolationError,
    KeyDirectory,
    Node,
    NotEntangledError,
    Receipt,
    ReceiptPaths,
    RoundState,
    StaleSubmissionError,
    Submission,
    check_receipt,
    commitment_digest,
    credential_leaf_index,
    entangled_leaf_index,
    evidence_leaf_index,
    submission_of,
    round_leaves,
    validate_state,
    verify_chain_entries,
)
from entmesh.sexpr import encode_tree
from entmesh.wire import Reader, WireError, decode
from adversary import DECOY, decoy_prev_tree, flip, forged_commitment, held_in_memory, prev_leaf, signed_tree
import reference


def parse_manifest_leaf(leaf: bytes) -> tuple:
    """The node ids of a manifest leaf, read back: no library code reads one."""
    if leaf[:1] != bytes([LEAF_MANIFEST]):
        raise WireError("not a manifest leaf")
    return decode(leaf[1:], lambda r: r.digests("manifest ids", 1 << 20))


def solo_node(label="solo"):
    return Node(label, keypair_from_seed(f"key:{label}"))


def chain_of(records):
    """The holder chain of ``records``: their commitments, and the links of all but the first."""
    return HolderChain(tuple(record.commitment for record in records), tuple(record.link for record in records[1:]))


class TestLeafLayout:
    def test_round_zero_chains_from_zero(self):
        node = solo_node()
        record = node.build(("genesis",))
        leaves = round_leaves(record.state)
        assert leaves[0] == bytes([LEAF_PREV]) + ZERO_DIGEST
        assert leaves[1] == bytes([LEAF_PAYLOAD]) + encode_tree(("genesis",)).root
        assert leaves[2][0] == LEAF_MANIFEST

    def test_prev_leaf_is_commitment_digest(self):
        node = solo_node()
        first = node.build(("r0",))
        second = node.build(("r1",))
        expected = commitment_digest(first.commitment)
        assert round_leaves(second.state)[0] == bytes([LEAF_PREV]) + expected

    def test_manifest_leaf_round_trips(self):
        node = solo_node()
        ids = [keypair_from_seed(f"peer:{i}").node_id for i in range(3)]
        node.set_manifest(ids)
        record = node.build(("x",))
        leaf = round_leaves(record.state)[MANIFEST_LEAF_INDEX]
        assert parse_manifest_leaf(leaf) == tuple(sorted(ids))

    def test_manifest_sorted_and_deduped(self):
        node = solo_node()
        ids = [keypair_from_seed(f"peer:{i}").node_id for i in range(3)]
        node.set_manifest([ids[2], ids[0], ids[2], ids[1]])
        assert node.manifest == tuple(sorted(ids))

    def test_entangled_and_evidence_sections(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(4)
        issuer_state = net.nodes["b"].record_at(2).state
        sub_leaf = issuer_state.entangled[0].leaf_bytes()
        assert sub_leaf[0] == LEAF_ENTANGLED
        index = entangled_leaf_index(issuer_state, net.id_of("a"), 1)
        assert issuer_state.entangled[index - FIXED_LEAVES].holder_round == 1

        holder_state = net.nodes["a"].record_at(3).state
        assert holder_state.evidence, "receipt must be retained as evidence"
        receipt = holder_state.evidence[0]
        assert receipt.leaf_bytes()[0] == LEAF_EVIDENCE
        # Lag: round-r submission's receipt lands in the round r+2 tree.
        assert receipt.holder_round == 1
        ev_index = evidence_leaf_index(holder_state, net.id_of("b"), 1)
        leaves = round_leaves(holder_state)
        assert leaves[ev_index] == receipt.leaf_bytes()

    def test_unknown_lookup_raises(self):
        node = solo_node()
        record = node.build(("x",))
        with pytest.raises(NotEntangledError):
            entangled_leaf_index(record.state, node.node_id, 0)


# The leaf lookups as linear scans: the reference the binary searches must match.


def linear_entangled_leaf_index(state, holder_id, holder_round):
    for pos, sub in enumerate(state.entangled):
        if sub.holder_id == holder_id and sub.holder_round == holder_round:
            return FIXED_LEAVES + pos
    raise NotEntangledError(f"no submission from {holder_id.hex()} round {holder_round}")


def linear_evidence_leaf_index(state, issuer_id, holder_round):
    for pos, rcpt in enumerate(state.evidence):
        if rcpt.issuer_id == issuer_id and rcpt.holder_round == holder_round:
            return FIXED_LEAVES + len(state.entangled) + pos
    raise NotEntangledError(f"no evidence from {issuer_id.hex()} for round {holder_round}")


def linear_credential_leaf_index(state, digest):
    base = FIXED_LEAVES + len(state.entangled) + len(state.evidence)
    for pos, d in enumerate(state.credentials):
        if d == digest:
            return base + pos
    raise NotEntangledError(f"credential {digest.hex()} not committed in round {state.round}")


# A small pool, so that drawn lookup keys are often present and often absent.
_IDS = st.sampled_from([sha256(bytes([i])) for i in range(6)])
_ROUNDS = st.integers(0, 3)
_KEYS = st.tuples(_IDS, _ROUNDS)


def _submission(holder_id, holder_round):
    return Submission(holder_id, holder_round, sha256(holder_id), b"sig")


def _receipt(issuer_id, holder_round, holder_id):
    proof = InclusionProof(0, ())
    issuer = Commitment(issuer_id, holder_round + 1, ZERO_DIGEST, 1, b"sig")
    return Receipt(_submission(holder_id, holder_round), issuer, ZERO_DIGEST, ReceiptPaths(proof, proof))


@st.composite
def sorted_states(draw):
    holder_id = sha256(b"holder")
    entangled = sorted(draw(st.sets(_KEYS, max_size=12)))
    evidence = sorted(draw(st.sets(_KEYS, max_size=12)))
    state = RoundState(
        node_id=holder_id,
        round=4,
        prev_commitment_digest=sha256(b"prev"),
        payload=("x",),
        manifest=(),
        entangled=tuple(_submission(*key) for key in entangled),
        evidence=tuple(_receipt(issuer_id, r, holder_id) for issuer_id, r in evidence),
        credentials=tuple(sorted(draw(st.sets(_IDS, max_size=6)))),
    )
    validate_state(state)
    return state


def _same_outcome(fast, slow, *args):
    try:
        expected = slow(*args)
    except NotEntangledError as exc:
        with pytest.raises(NotEntangledError) as raised:
            fast(*args)
        assert str(raised.value) == str(exc)
    else:
        assert fast(*args) == expected


class TestLeafLookup:
    @settings(max_examples=200, deadline=None)
    @given(state=sorted_states(), lookups=st.lists(_KEYS, min_size=1, max_size=8))
    def test_bisection_matches_linear_scan(self, state, lookups):
        for node_id, r in lookups:
            _same_outcome(entangled_leaf_index, linear_entangled_leaf_index, state, node_id, r)
            _same_outcome(evidence_leaf_index, linear_evidence_leaf_index, state, node_id, r)
            _same_outcome(credential_leaf_index, linear_credential_leaf_index, state, node_id)
        for sub in state.entangled:
            _same_outcome(entangled_leaf_index, linear_entangled_leaf_index, state, sub.holder_id, sub.holder_round)
        for receipt in state.evidence:
            _same_outcome(evidence_leaf_index, linear_evidence_leaf_index, state, receipt.issuer_id, receipt.holder_round)
        for digest in state.credentials:
            _same_outcome(credential_leaf_index, linear_credential_leaf_index, state, digest)


class TestStateValidation:
    def test_round_zero_must_use_zero_digest(self):
        node = solo_node()
        state = node.compose_state(("x",))
        bad = dataclasses.replace(state, prev_commitment_digest=sha256(b"nope"))
        with pytest.raises(InvariantViolationError):
            validate_state(bad)

    def test_unsorted_manifest_rejected(self):
        node = solo_node()
        ids = sorted(keypair_from_seed(f"p:{i}").node_id for i in range(2))
        state = node.compose_state(("x",))
        bad = dataclasses.replace(state, manifest=(ids[1], ids[0]))
        with pytest.raises(InvariantViolationError):
            validate_state(bad)

    def test_duplicate_credentials_rejected(self):
        node = solo_node()
        d = sha256(b"cred")
        state = node.compose_state(("x",))
        bad = dataclasses.replace(state, credentials=(d, d))
        with pytest.raises(InvariantViolationError):
            validate_state(bad)

    def test_negative_round_rejected(self):
        node = solo_node()
        state = node.compose_state(("x",))
        with pytest.raises(InvariantViolationError):
            validate_state(dataclasses.replace(state, round=-1))


class TestDeterminism:
    def test_identical_histories_identical_commitments(self):
        histories = []
        for _ in range(2):
            node = Node("twin", keypair_from_seed("key:twin"))
            for r in range(3):
                node.build(("payload", r))
            histories.append([rec.commitment.to_bytes() for rec in node.records])
        assert histories[0] == histories[1]

    def test_different_payload_different_root(self):
        a, b = solo_node("p"), Node("p", keypair_from_seed("key:p"))
        assert a.build(("one",)).root != b.build(("two",)).root


class TestWireForms:
    def test_commitment_round_trip(self):
        node = solo_node()
        c = node.build(("x",)).commitment
        assert Commitment.from_bytes(c.to_bytes()) == c
        assert len(c.to_bytes()) == 148

    def test_submission_round_trip_and_signature(self):
        # No reader reads a Submission: a proof verifier rebuilds it from the
        # holder's commitment and the signature, with the bytes it was signed as.
        node = solo_node()
        c = node.build(("x",)).commitment
        directory = KeyDirectory()
        directory.register(node.node_id, node.keypair.verify_key)
        sub = node.make_submission()
        assert directory.verify_submission(sub)
        assert sub.to_bytes() == reference.write("Submission", sub)
        rebuilt = submission_of(c, sub.signature)
        assert rebuilt == sub and rebuilt.to_bytes() == sub.to_bytes()

    def test_receipt_round_trip(self, manual_net):
        # A receipt's bytes are its fields' as the reference writer puts
        # them: its submission's, then its issuer commitment, read back from
        # them, and the rest is its paths in the receipt's form.  Neither the
        # submission nor the paths has a reader.
        net = manual_net(["a", "b"], [("a", "b")]).run(3)
        receipt = net.nodes["a"].receipt_log[(net.id_of("b"), 1)]
        data = receipt.to_bytes()
        assert data == reference.write("Receipt", receipt)
        sub = reference.write("Submission", receipt.submission)
        assert data.startswith(sub)
        r = Reader(data[len(sub) :])
        assert Commitment.from_bytes(r.blob()) == receipt.issuer_commitment
        assert data[len(sub) + r.tell() :] == reference.receipt_paths(receipt.paths, receipt.prev_digest, receipt.issuer_commitment.leaf_count)

    def test_trailing_bytes_rejected(self):
        node = solo_node()
        c = node.build(("x",)).commitment
        with pytest.raises(WireError):
            Commitment.from_bytes(c.to_bytes() + b"\x00")


class TestReceiptFlow:
    def test_receipt_references_next_issuer_round(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(4)
        for holder_round in (0, 1, 2):
            receipt = net.nodes["a"].receipt_log[(net.id_of("b"), holder_round)]
            assert receipt.issuer_round == holder_round + 1
            assert receipt.holder_root == net.nodes["a"].record_at(holder_round).root

    def test_no_receipt_failures_in_honest_run(self, manual_net):
        net = manual_net(["a", "b", "c"], [("a", "b"), ("b", "c")]).run(5)
        assert net.receipt_failures == []

    def test_stale_submission_rejected(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(1)
        old_sub = net.nodes["a"].make_submission()  # round 0
        net.run(2)  # issuer now at round 2
        with pytest.raises(StaleSubmissionError):
            net.nodes["b"].issue_receipt(old_sub)

    def test_unentangled_submission_rejected(self):
        issuer, holder = solo_node("i"), solo_node("h")
        issuer.build(("x",))
        holder.build(("y",))
        with pytest.raises(NotEntangledError):
            issuer.issue_receipt(holder.make_submission())

    def test_tampered_submission_root_rejected(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(2)
        sub = net.nodes["a"].make_submission()  # round 1, already entangled
        forged = dataclasses.replace(sub, holder_root=sha256(b"forged"))
        with pytest.raises(NotEntangledError):
            net.nodes["b"].issue_receipt(forged)

    def test_receipt_to_wrong_holder_rejected(self, manual_net):
        net = manual_net(["a", "b", "c"], [("a", "c"), ("b", "c")]).run(3)
        receipt = net.nodes["a"].receipt_log[(net.id_of("c"), 1)]
        verdict = net.nodes["b"].verify_receipt(receipt, net.directory)
        assert not verdict and verdict.reason == "HolderMismatch"

    def test_receipt_for_unknown_root_rejected(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(3)
        receipt = net.nodes["a"].receipt_log[(net.id_of("b"), 1)]
        forged = dataclasses.replace(
            receipt, submission=dataclasses.replace(receipt.submission, holder_root=sha256(b"other"))
        )
        verdict = net.nodes["a"].verify_receipt(forged, net.directory)
        assert not verdict and verdict.reason == "ReceiptMismatch"

    def test_receipt_with_unsigned_commitment_rejected(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(3)
        receipt = net.nodes["a"].receipt_log[(net.id_of("b"), 1)]
        bad_commitment = dataclasses.replace(receipt.issuer_commitment, round=9)
        forged = dataclasses.replace(receipt, issuer_commitment=bad_commitment)
        verdict = net.nodes["a"].verify_receipt(forged, net.directory)
        assert not verdict and verdict.reason == "BadSignature"

    def test_issuer_fork_detected_as_chain_break(self, manual_net):
        # Replay the issuer under the same key, diverge one round early,
        # then hand the holder a receipt from the divergent branch.
        net = manual_net(["a", "b"], [("a", "b")]).run(3)
        holder, issuer = net.nodes["a"], net.nodes["b"]

        def holder_submission(r):
            c = holder.record_at(r).commitment
            sub = Submission(holder_id=c.node_id, holder_round=c.round, holder_root=c.root, signature=b"")
            return dataclasses.replace(sub, signature=holder.keypair.sign(sub.message()))

        fork = Node("b", keypair_from_seed("net:b"))
        for r in range(3):
            payload = ("data", "b", r) if r < 2 else ("divergent", r)
            fork.build(payload)
            assert fork.receive_submission(holder_submission(r), net.directory)
        fork.build(("divergent", 3))
        fork_receipt = fork.issue_receipt(holder_submission(2))

        verdict = holder.verify_receipt(fork_receipt, net.directory)
        assert not verdict and verdict.reason == "ChainBreak"


class TestCommitmentChains:
    def test_full_chain_verifies(self, manual_net):
        # Every node's whole history, from round 0, verifies; and each
        # committed root is the root of the tree the node kept for that round.
        net = manual_net(["a", "b"], [("a", "b")]).run(4)
        for node in net.nodes.values():
            records = node.records
            assert [r.round for r in records] == [0, 1, 2, 3]
            assert all(r.tree.root == r.commitment.root for r in records)
            assert verify_chain_entries(chain_of(records), net.directory)

    def test_gap_detected(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(4)
        records = net.nodes["a"].records
        verdict = verify_chain_entries(HolderChain((records[0].commitment, records[2].commitment), (records[2].link,)), net.directory)
        assert verdict.reason == "RoundGap"

    def test_unknown_signer_detected(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(2)
        verdict = verify_chain_entries(chain_of(net.nodes["a"].records), KeyDirectory())
        assert verdict.reason == "BadSignature"

    def test_chain_entries_match_full_check(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(4)
        assert verify_chain_entries(chain_of(net.nodes["a"].records), net.directory)

    def test_substituted_history_breaks_entries(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(4)
        other = manual_net(["a", "b"], [("a", "b")], seed="net2").run(4)
        records = list(net.nodes["a"].records)
        records[2] = other.nodes["a"].records[2]
        verdict = verify_chain_entries(chain_of(records), net.directory)
        assert not verdict
        assert verdict.reason in ("BadSignature", "ChainBreak")

    @pytest.mark.parametrize("part", ["commitment", "link"])
    def test_link_folds_from_the_previous_commitment(self, manual_net, part):
        # A commitment below the head whose signature alone differs, or a
        # link with a flipped sibling: either way round 2's first leaf is
        # not the digest of the commitment before it, under the same head.
        net = manual_net(["a", "b"], [("a", "b")]).run(4)
        chain = chain_of(net.nodes["a"].records)
        commitments, links = list(chain.commitments), list(chain.links)
        if part == "commitment":
            commitments[1] = forged_commitment(commitments[1])
        else:
            path = links[1].proof
            links[1] = ChainLink(path._replace(siblings=(flip(path.siblings[0]), *path.siblings[1:])))
        verdict = verify_chain_entries(HolderChain(tuple(commitments), tuple(links)), net.directory)
        assert (verdict.reason, verdict.detail) == ("ChainBreak", "round 2 does not chain")

    def test_one_link_per_commitment_after_the_first(self, manual_net):
        # A chain with a link too few or too many cannot be made, from its
        # fields or by replacing them, so the links walked beside the
        # commitments drop none; nor can a chain of no commitment.
        net = manual_net(["a", "b"], [("a", "b")]).run(4)
        chain = chain_of(net.nodes["a"].records)
        for bad in (chain.links[:-1], chain.links + chain.links[-1:]):
            with pytest.raises(WireError, match="^a holder chain holds one link per commitment after the first$"):
                HolderChain(chain.commitments, bad)
            with pytest.raises(WireError, match="^a holder chain holds one link per commitment after the first$"):
                dataclasses.replace(chain, links=bad)
        assert verify_chain_entries(HolderChain(chain.commitments[:1], ()), net.directory)
        with pytest.raises(WireError, match="^a link or hub proof needs a holder chain entry and a window round$"):
            HolderChain((), ())


class TestSignedTreesNoBuilderMakes:
    """A real key can sign a tree that no honest build makes: here, one whose
    second leaf is a second prev-commitment leaf.  Every hash and signature
    then checks out, and only the leaf's position is refused.  A path off
    the index the format fixes cannot be written, so no record of one can be
    made from its fields.  A peer may hold a receipt's paths or a chain link
    in memory with bytes passed in; each refuses that too."""

    def test_receipt_whose_prev_leaf_proof_is_not_at_index_0(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(3)
        holder, issuer = net.nodes["a"], net.nodes["b"]
        sub = holder.make_submission()
        real = commitment_digest(issuer.record_at(2).commitment)
        tree, c = decoy_prev_tree(issuer, 3, real, sub.leaf_bytes())
        honest = ReceiptPaths(tree.prove_inclusion(2), tree.prove_inclusion(0))
        assert check_receipt(Receipt(sub, c, real, honest), net.directory)
        # The decoy's path folds to the signed root, from the wrong leaf.
        assert c.proves((leaf_hash(prev_leaf(DECOY)),), tree.prove_inclusion(1))
        with pytest.raises(WireError, match="^path at leaf 1, not at leaf 0$"):
            ReceiptPaths(tree.prove_inclusion(2), tree.prove_inclusion(1))
        # Nor with bytes passed in, as a peer holds a receipt's paths: no receipt holds one.
        with pytest.raises(WireError, match="^path at leaf 1, not at leaf 0$"):
            held_in_memory(honest, prev_inclusion=tree.prove_inclusion(1))

    def test_chain_link_whose_path_is_not_at_index_0(self, manual_net):
        # Round 2's tree holds the real prev leaf second, after a decoy: a
        # path to it folds from the previous commitment, at the wrong leaf.
        net = manual_net(["a", "b"], [("a", "b")]).run(3)
        node = net.nodes["a"]
        previous = node.record_at(1).commitment
        payload = bytes([LEAF_PAYLOAD]) + DECOY
        tree, c = signed_tree(node, 2, [prev_leaf(commitment_digest(previous)), payload])
        assert verify_chain_entries(HolderChain((previous, c), (ChainLink(tree.prove_inclusion(0)),)), net.directory)
        tree, c = signed_tree(node, 2, [prev_leaf(DECOY), prev_leaf(commitment_digest(previous)), payload])
        with pytest.raises(WireError, match="^path at leaf 1, not at leaf 0$"):
            ChainLink(tree.prove_inclusion(1))
        # Nor with bytes passed in, as a reader makes a link: no chain holds one.
        with pytest.raises(WireError, match="^path at leaf 1, not at leaf 0$"):
            held_in_memory(ChainLink(tree.prove_inclusion(0)), proof=tree.prove_inclusion(1))


class TestRecordsAreMadeOnce:
    def test_no_record_field_can_be_assigned(self, manual_net):
        record = manual_net(["a", "b"], [("a", "b")]).run(2).nodes["b"].record_at(1)
        for name in ("commitment", "state", "tree", "link", "retained_bytes"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)

    def test_a_built_record_holds_its_link_before_anything_asks(self):
        node = solo_node()
        directory = KeyDirectory()
        directory.register(node.node_id, node.keypair.verify_key)
        records = [node.build(("data", r)) for r in range(3)]
        for record in records:
            assert vars(record)["link"].proof == record.tree.prove_inclusion(0)
        assert verify_chain_entries(chain_of(records), directory)


class TestPruning:
    def test_pruned_record_keeps_commitment(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(3)
        node = net.nodes["b"]
        root_before = node.record_at(0).root
        node.prune_record(0)
        record = node.record_at(0)
        assert record.state is None and record.tree is None
        assert record.root == root_before

    def test_pruning_drops_the_kept_link(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(3)
        node = net.nodes["b"]
        assert node.record_at(1).link is not None
        node.prune_record(1)
        assert node.record_at(1).link is None

    def test_pruning_replaces_the_record_and_leaves_the_old_one_whole(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(3)
        node = net.nodes["b"]
        record = node.record_at(1)
        state, tree, link, kept = record.state, record.tree, record.link, record.retained_bytes
        node.prune_record(1)
        pruned = node.record_at(1)
        assert pruned is not record
        assert (record.state, record.tree, record.link, record.retained_bytes) == (state, tree, link, kept)
        assert (pruned.state, pruned.tree, pruned.link) == (None, None, None)
        assert pruned.commitment is record.commitment
        assert pruned.retained_bytes == len(record.commitment.to_bytes()) + 32

    def test_pruned_record_cannot_prove(self, manual_net):
        net = manual_net(["a", "b"], [("a", "b")]).run(4)
        node = net.nodes["a"]
        node.prune_record(1)
        with pytest.raises(InvariantViolationError, match="^round 1 was pruned; cannot build a holder chain$"):
            build_link_proof(node.records, net.id_of("b"), (1, 1), node.receipt_log)


class TestKeyDirectory:
    def test_rebind_switches_at_round(self):
        directory = KeyDirectory()
        old, new = keypair_from_seed("old"), keypair_from_seed("new")
        node_id = old.node_id
        directory.register(node_id, old.verify_key)
        directory.rebind(node_id, new.verify_key, from_round=5)
        assert directory.key_at(node_id, 0) == old.verify_key
        assert directory.key_at(node_id, 4) == old.verify_key
        assert directory.key_at(node_id, 5) == new.verify_key
        assert directory.key_at(node_id, 9) == new.verify_key

    def test_unknown_id(self):
        assert KeyDirectory().key_at(sha256(b"ghost"), 0) is None

    def test_register_refuses_an_id_it_holds(self):
        # A second registration must not silently replace the id's rebindings.
        directory = KeyDirectory()
        old, new = keypair_from_seed("old"), keypair_from_seed("new")
        directory.register(old.node_id, old.verify_key)
        directory.rebind(old.node_id, new.verify_key, from_round=3)
        with pytest.raises(InvariantViolationError, match="already registered"):
            directory.register(old.node_id, old.verify_key)
        assert directory.bindings_of(old.node_id) == ((0, old.verify_key), (3, new.verify_key))

    def test_bindings_listing(self):
        directory = KeyDirectory()
        old, new = keypair_from_seed("old"), keypair_from_seed("new")
        directory.register(old.node_id, old.verify_key)
        directory.rebind(old.node_id, new.verify_key, from_round=3)
        assert directory.bindings_of(old.node_id) == ((0, old.verify_key), (3, new.verify_key))
