"""Builders for inputs no honest node makes, shared by the test modules.

Signed trees a real key signs but no honest build makes, records held in
memory with bytes their encoder refuses to write, proof bytes no encoder
writes, forged signatures and commitments, proofs with one part swapped or
composed field by field, the every-entry reference rule for holder chains,
and two reference audits: the whole-history walk, and the audit that reads
each record's own prev digest.
pytest does not collect this file: its name has no ``test_`` prefix.
"""

import dataclasses

from hypothesis import strategies as st

from entmesh.entangle import EVIDENCE_LAG, ChainProof, HubProof, WindowRound, build_chain_proof, build_hub_proof, build_link_proof
from entmesh.hashtree import ZERO_DIGEST, MerkleTree, leaf_hash, sha256
from entmesh.node import (
    FIXED_LEAVES,
    LEAF_PAYLOAD,
    LEAF_PREV,
    MANIFEST_LEAF_INDEX,
    ChainLink,
    Commitment,
    HolderChain,
    Receipt,
    ReceiptPaths,
    Verdict,
    commitment_digest,
    receipt_key,
    round_leaves,
    verify_chain_head,
    verify_chain_links,
)

import reference

DECOY = sha256(b"decoy")


def signed_tree(node, round_no, leaves):
    """``leaves`` as a tree, and ``node``'s commitment to it at ``round_no``, signed with its own key."""
    tree = MerkleTree(leaves)
    unsigned = Commitment(node.node_id, round_no, tree.root, tree.size, b"")
    return tree, dataclasses.replace(unsigned, signature=node.keypair.sign(unsigned.message()))


def prev_leaf(digest):
    return bytes([LEAF_PREV]) + digest


def decoy_prev_tree(node, round_no, real, last):
    """``node``'s signed tree at ``round_no`` whose leaves are a prev-commitment
    leaf of ``real``, a second one of ``DECOY`` and ``last``."""
    return signed_tree(node, round_no, [prev_leaf(real), prev_leaf(DECOY), last])


def held_in_memory(record, **changes):
    """``record`` with ``changes``, made with ``record``'s bytes passed in: a
    record its encoder refuses, as a peer may hold one in memory.  Its kept
    bytes are stale, so only checks that read its fields see the changes."""
    return dataclasses.replace(record, encoding=record.to_bytes(), **changes)


def flip(signature):
    return bytes([signature[0] ^ 1]) + signature[1:]


def forged_commitment(commitment):
    """``commitment`` differing only in its signature."""
    return dataclasses.replace(commitment, signature=flip(commitment.signature))


def swap(items, index, item):
    items = list(items)
    items[index] = item
    return tuple(items)


def forge_at(items, index, forge):
    return swap(items, index, forge(items[index]))


def with_chain(proof, **changes):
    """``proof`` with its holder chain's ``commitments`` or ``links`` changed by ``changes``."""
    return dataclasses.replace(proof, holder_chain=dataclasses.replace(proof.holder_chain, **changes))


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """``blob`` cut short, lengthened, or with up to 8 bytes flipped."""
    how = draw(st.sampled_from(["xor", "truncate", "append"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "append":
        return blob + draw(st.binary(min_size=1, max_size=40))
    data = bytearray(blob)
    for position in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=8, unique=True)):
        data[position] ^= draw(st.integers(1, 255))
    return bytes(data)


def emptied_bytes(part, empty):
    """The bytes of link or hub proof ``part`` with its holder chain, or its
    window rounds, written as none by the reference writer: a zeroed u32
    count.  No proof with either empty can be made, so none can be encoded."""
    kind = type(part).__name__
    none = {"holder_chain": {"holder_chain_commitments": (), "links": ()}} if empty == "holder_chain" else {"window_rounds": ()}
    return reference.write(kind, {**reference.fields(kind, part), **none})


def with_round(proof, index, **changes):
    """``proof`` with its window round ``index`` changed by ``changes``."""
    return dataclasses.replace(proof, rounds=forge_at(proof.rounds, index, lambda rnd: rnd._replace(**changes)))


def forged_round_submission(proof, index):
    """``proof`` with the holder's signature on window round ``index``'s submission forged."""
    return with_round(proof, index, signature=flip(proof.rounds[index].signature))


def every_entry_rule(chain, directory):
    """The slow reference for a holder chain: ``verify_chain_links``, then
    ``every_entry_signature``.  It refuses what ``verify_chain_entries``
    refuses, and more only when an inner commitment's signature is bad under
    a head that the holder's key signed.
    """
    return verify_chain_links(chain, directory) and every_entry_signature(chain, directory)


def every_entry_signature(chain, directory):
    """``verify_chain_head``, then BadSignature for the first other commitment,
    in round order, whose signature fails under the key bound at its round.
    So each commitment's signature is checked once."""
    verdict = verify_chain_head(chain, directory)
    if not verdict:
        return verdict
    for c in chain.commitments[:-1]:
        if not directory.verify_commitment(c):
            return Verdict.failed("BadSignature", f"round {c.round}")
    return verdict


def full_history_audit(sim, r, rule):
    """The chain audit at round ``r`` as a walk of each node's whole history:
    ``rule`` over the links of its unpruned records, from round 1 at every
    audit, each from the commitment of the record before it.  The simulator's
    audit, which starts at the node's last passing head, must report what
    this does."""
    if not sim.audit_every or r == 0 or r % sim.audit_every:
        return
    for label in sim.topology.labels:
        records = sim.nodes[label].records
        walked = [i for i in range(1, len(records)) if records[i].link is not None]
        if not walked:
            continue
        chain = HolderChain(tuple(records[i].commitment for i in [walked[0] - 1, *walked]), tuple(records[i].link for i in walked))
        verdict = rule(chain, sim._verifier)
        if not verdict:
            sim._event("ChainAuditFailed", node=label, reason=verdict.reason)


def own_prev_digest_audit(sim, label, start):
    """The audit as it was while each record kept its own prev digest, for
    ``Simulation._audit``: over the node's unpruned records from round
    ``start`` on, passing when fewer than two are left, each record's
    first-leaf path folded with the prev digest its state holds, that digest
    compared with the digest of the record before it, and a round-0 record's
    with the zero digest; then the head's signature.  The simulator's audit,
    which folds each path with its predecessor's digest instead, must report
    what this does."""
    records = [record for record in sim.nodes[label].records[start:] if record.link is not None]
    if len(records) < 2:
        return Verdict.passed()
    previous = None
    for record in records:
        c, prev_digest, path = record.commitment, record.state.prev_commitment_digest, record.link.proof
        if previous is not None and c.round != previous.round + 1:
            return Verdict.failed("RoundGap", f"round {c.round} after {previous.round}")
        if path.leaf_index != 0:
            return Verdict.failed("ChainBreak", f"first-leaf proof at wrong position, round {c.round}")
        if not sim._verifier.proves(c, (leaf_hash(prev_leaf(prev_digest)),), path):
            return Verdict.failed("ChainBreak", f"first leaf unproven at round {c.round}")
        if previous is not None and prev_digest != commitment_digest(previous):
            return Verdict.failed("ChainBreak", f"round {c.round} does not chain")
        if previous is None and c.round == 0 and prev_digest != ZERO_DIGEST:
            return Verdict.failed("ChainBreak", "round 0 must chain from the zero digest")
        previous = c
    return verify_chain_head(HolderChain((previous,), ()), sim._verifier)


def chain_of_links(sim, links):
    """A chain proof whose hops are the link proofs of ``links``, each a
    (holder, issuer, window) of labels in ``sim``, however they join."""
    ids = {label: node.node_id for label, node in sim.nodes.items()}
    records, receipts = sim.records_by_id(), sim.receipts_by_id()
    return ChainProof(
        hops=tuple(build_link_proof(records[ids[h]], ids[i], window, receipts[ids[h]]) for h, i, window in links)
    )


def compose_in_manifest_order(node, manifest):
    """Make ``node`` list its issuers in ``manifest`` order, canonical or not,
    and retain each round's receipts in that order."""
    node.manifest = manifest
    compose = node.compose_state

    def compose_in_manifest_order(*args):
        state = compose(*args)
        by_key = {receipt_key(rc): rc for rc in state.evidence}
        held = sorted({r for _, r in by_key})
        return dataclasses.replace(state, evidence=tuple(by_key[i, r] for r in held for i in manifest))

    node.compose_state = compose_in_manifest_order


def hub_proof_in_manifest_order(node, manifest, window):
    """``node``'s hub proof over ``window``, built field by field with the
    receipts of each round taken in ``manifest`` order, as
    ``compose_in_manifest_order`` retained them."""
    start, end = window
    rounds = []
    for r in range(start, end + 1):
        receipts = [node.receipt_log[i, r] for i in manifest]
        retaining = node.records[r + EVIDENCE_LAG]
        keys = [receipt_key(rc) for rc in retaining.state.evidence]
        first = FIXED_LEAVES + len(retaining.state.entangled) + keys.index((manifest[0], r))
        evidence = retaining.tree.prove_range(first, first + len(manifest))
        prev_digests = tuple(rc.prev_digest for rc in receipts) if r == start else ()
        rounds.append(WindowRound(receipts[0].submission.signature, tuple(rc.paths for rc in receipts), evidence, prev_digests))
    proofs = tuple(node.records[r].tree.prove_inclusion(MANIFEST_LEAF_INDEX) for r in range(start, end + 1))
    held = node.records[start : end + EVIDENCE_LAG + 1]
    chain = HolderChain(tuple(r.commitment for r in held), tuple(r.link for r in held[1:]))
    return HubProof(manifest, proofs, chain, tuple(rounds))


def retained_in_the_head(holder, proof, honest, receipt):
    """``proof``, a link or hub proof of ``holder``'s, with the receipt
    ``honest`` of its last window round swapped for ``receipt``: the holder
    signs a tree retaining ``receipt`` in ``honest``'s place, at the round
    that retains ``honest``, which becomes the head.  The window holds
    two rounds at least, so the last round writes no prev digest."""
    retaining = honest.holder_round + EVIDENCE_LAG
    leaves = [receipt.leaf_bytes() if leaf == honest.leaf_bytes() else leaf for leaf in round_leaves(holder.records[retaining].state)]
    tree, head = signed_tree(holder, retaining, leaves)
    last = proof.rounds[-1]
    paths = tuple(receipt.paths if p == honest.paths else p for p in last.receipts)
    at = last.evidence_proof.leaf_index  # the run of the round's receipts keeps its place
    last = WindowRound(receipt.submission.signature, paths, tree.prove_range(at, at + len(paths)))
    held = proof.holder_chain
    chain = HolderChain(held.commitments[:-1] + (head,), held.links[:-1] + (ChainLink(tree.prove_inclusion(0)),))
    return dataclasses.replace(proof, holder_chain=chain, rounds=proof.rounds[:-1] + (last,))


def link_over_a_submission_signed_by(net, holder_label, issuer_label, signer):
    """The holder's link proof over [1, 2] and a trust log for the issuer,
    with round 2's Submission signed by ``signer``, a node other than the
    holder.  The issuer signs a round-3 tree that entangles that Submission
    where the honest one was, the trust log holds it, and the holder signs a
    round-4 tree retaining its receipt."""
    holder, issuer = net.nodes[holder_label], net.nodes[issuer_label]
    proof = build_link_proof(holder.records, issuer.node_id, (1, 2), holder.receipt_log)
    honest = holder.receipt_log[issuer.node_id, 2]
    entangled = honest.submission
    sub = dataclasses.replace(entangled, signature=signer.keypair.sign(entangled.message()))
    leaves = [sub.leaf_bytes() if leaf == entangled.leaf_bytes() else leaf for leaf in round_leaves(issuer.records[3].state)]
    tree_3, c_3 = signed_tree(issuer, 3, leaves)
    at = leaves.index(sub.leaf_bytes())
    paths = ReceiptPaths(tree_3.prove_inclusion(at), tree_3.prove_inclusion(0))
    bad = retained_in_the_head(holder, proof, honest, Receipt(sub, c_3, honest.prev_digest, paths))
    return bad, {**net.commitments_of(issuer_label), 3: c_3}


def issuer_fork(issuer, honest):
    """``issuer``'s receipt for the Submission of ``honest``, a receipt of
    holder round r, from a fork: the issuer signs a second round-r
    commitment and a round r + 1 tree on top of it that entangles that
    Submission.  Each of the fork's rounds is one a trust log may hold."""
    r = honest.holder_round
    decoy = bytes([LEAF_PAYLOAD]) + sha256(b"fork")
    _, fork = signed_tree(issuer, r, [prev_leaf(commitment_digest(issuer.records[r - 1].commitment)), decoy])
    tree, forked = signed_tree(issuer, r + 1, [prev_leaf(commitment_digest(fork)), decoy, honest.submission.leaf_bytes()])
    paths = ReceiptPaths(tree.prove_inclusion(2), tree.prove_inclusion(0))
    return Receipt(honest.submission, forked, commitment_digest(fork), paths)


def link_over_an_issuer_fork(net, holder_label, issuer_label):
    """The holder's link proof over [1, 2] and a trust log for the issuer,
    with round 2's receipt from a fork (``issuer_fork``): the trust log
    holds the forked round 3 beside the real round 2.  The holder signs a
    round-4 tree retaining the forked receipt."""
    holder, issuer = net.nodes[holder_label], net.nodes[issuer_label]
    proof = build_link_proof(holder.records, issuer.node_id, (1, 2), holder.receipt_log)
    honest = holder.receipt_log[issuer.node_id, 2]
    forked = issuer_fork(issuer, honest)
    return retained_in_the_head(holder, proof, honest, forked), {**net.commitments_of(issuer_label), 3: forked.issuer_commitment}


def hub_over_an_issuer_fork(net, holder_label, issuer_label):
    """The holder's hub proof over [1, 2] and a trust log for each manifest
    issuer, with ``issuer_label``'s round-2 receipt from a fork, as
    ``link_over_an_issuer_fork`` makes it; the others are honest."""
    holder, issuer = net.nodes[holder_label], net.nodes[issuer_label]
    proof = build_hub_proof(holder.records, (1, 2), holder.receipt_log)
    honest = holder.receipt_log[issuer.node_id, 2]
    forked = issuer_fork(issuer, honest)
    trust = {net.id_of(label): net.commitments_of(label) for label in net.nodes if net.id_of(label) in proof.manifest}
    trust[issuer.node_id] = {**trust[issuer.node_id], 3: forked.issuer_commitment}
    return retained_in_the_head(holder, proof, honest, forked), trust


def chain_over_an_anchor_fork(net, labels, start_round, window_len):
    """The chain proof along ``labels`` (holder first, anchor last) and the
    anchor's trust log, with the last hop's last window round's receipt
    from a fork of the anchor, as ``link_over_an_issuer_fork`` makes it."""
    ids = [net.id_of(label) for label in labels]
    proof = build_chain_proof(net.records_by_id(), net.receipts_by_id(), ids, start_round, window_len)
    holder, anchor, last = net.nodes[labels[-2]], net.nodes[labels[-1]], proof.hops[-1]
    honest = holder.receipt_log[anchor.node_id, last.window_end]
    forked = issuer_fork(anchor, honest)
    bad = ChainProof(proof.hops[:-1] + (retained_in_the_head(holder, last, honest, forked),))
    return bad, {**net.commitments_of(labels[-1]), forked.issuer_round: forked.issuer_commitment}
