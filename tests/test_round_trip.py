"""Decoding is the inverse of encoding, and a record's bytes are its fields'.

Records keep one encoding, set when they are made: a decoded one the bytes
it was read from, one the simulator signs the bytes it signed, any other
record the bytes its fields encode to; a receipt joins its parts' bytes, with its
paths in the receipt's own form.  These tests hold every such encoding,
and whole proofs, to the reference writer (``tests/reference.py``), which
writes the docs/FORMATS.md layouts field by field, on the three proofs the
CI job builds and on mutations of them, and check that
``dataclasses.replace`` never carries an old encoding over to new fields.
A verifier rebuilds each round's submission from its holder chain
commitment and that round's signature, and joins each evidence leaf from
the submission, its paths in the receipt's form with the prev digest (the
written one, then its trusted issuer commitment's of the round before) and
its trusted issuer commitment; the reference for that leaf is the one the
holder retained, or for a mutated proof the leaf of the ``Receipt`` made
of those parts.
"""

import dataclasses
import hashlib
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmesh import entangle, hashtree
from entmesh import node as node_module
from entmesh.config import load_config, make_simulation
from entmesh.simnet import Simulation, fan, federated
from entmesh.entangle import (
    EVIDENCE_LAG,
    ChainProof,
    HubProof,
    build_chain_proof,
    build_hub_proof,
    build_link_proof,
    decode_proof,
    encode_proof,
    owed_checks,
    verify_chain,
    verify_hub,
    verify_link,
)
from entmesh.hashtree import leaf_hash
from entmesh.node import (
    LEAF_ENTANGLED,
    ChainLink,
    Node,
    Receipt,
    ReceiptPaths,
    Submission,
    commitment_digest,
    submission_of,
)
from entmesh.wire import Reader, WireError

import reference
from adversary import mutated, with_chain
from reference import write

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def assert_encodes_its_fields(record) -> None:
    kind = type(record).__name__
    assert record.to_bytes() == write(kind, record)
    if kind in ("Commitment", "Submission"):
        assert record.message() == write(kind, record, until="signature")
    if kind == "Commitment":
        assert commitment_digest(record) == hashlib.sha256(write(kind, record)).digest()
    elif kind == "Submission":
        assert record.leaf_bytes() == bytes([LEAF_ENTANGLED]) + write(kind, record)
    elif kind == "Receipt":
        assert record.leaf_bytes() == write("EvidenceLeaf", record)


def signed_records(proof):
    """Every holder chain commitment and link and receipt paths a proof
    holds, and the submission a verifier rebuilds for each window round."""
    parts = proof.hops if isinstance(proof, ChainProof) else (proof,)
    for part in parts:
        yield from part.holder_chain.commitments
        yield from part.holder_chain.links
        for c, rnd in zip(part.holder_chain.commitments, part.rounds):
            yield submission_of(c, rnd.signature)
            yield from rnd.receipts


def _run(name: str):
    sim = make_simulation(load_config(SCENARIOS / name))
    sim.run()
    return sim


@pytest.fixture(scope="module")
def ci_proofs():
    """The hub, chain and link proofs the CI job writes, with their runs."""
    hub_sim = _run("hub.yaml")
    center = hub_sim.nodes["center"]
    chain_sim = _run("chain.yaml")
    ids = [chain_sim.nodes[label].node_id for label in chain_sim.path_to_anchor("h0")]
    link_sim = _run("identity.yaml")
    h0 = link_sim.nodes["h0"]
    return {
        "hub": (build_hub_proof(center.records, (1, 3), center.receipt_log), hub_sim),
        "chain": (build_chain_proof(chain_sim.records_by_id(), chain_sim.receipts_by_id(), ids, 1, 2), chain_sim),
        "link": (build_link_proof(h0.records, link_sim.nodes["hub"].node_id, (1, 4), h0.receipt_log), link_sim),
    }


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
def test_ci_proof_round_trips(ci_proofs, kind):
    assert_round_trips(ci_proofs[kind][0])


def assert_round_trips(proof) -> None:
    """``proof`` encodes to the reference's bytes and decodes back, and each
    record it holds, or its decoded copy holds, encodes to its fields'."""
    blob = encode_proof(proof)
    assert blob == reference.encode(proof)
    decoded = decode_proof(blob)
    assert decoded == proof and encode_proof(decoded) == blob
    for record in (*signed_records(decoded), *signed_records(proof)):
        assert_encodes_its_fields(record)


@pytest.fixture(scope="module")
def fan_runs():
    return {n: Simulation(fan(n), rounds=7, seed=3).run() for n in (1, 5, 40)}


@pytest.mark.parametrize("n", [1, 5, 40])
@pytest.mark.parametrize("w", [1, 2, 4])
def test_fan_hub_proof_round_trips(fan_runs, n, w):
    center = fan_runs[n].nodes["center"]
    assert_round_trips(build_hub_proof(center.records, (1, w), center.receipt_log))


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_decodable_mutation_round_trips(ci_proofs, kind, data):
    blob = data.draw(mutated(encode_proof(ci_proofs[kind][0])), label="mutated")
    try:
        decoded = decode_proof(blob)
    except (WireError, ValueError):
        return
    assert encode_proof(decoded) == blob == reference.encode(decoded)
    for record in signed_records(decoded):
        assert_encodes_its_fields(record)


def _flip(value: bytes) -> bytes:
    return type(value)(bytes([value[0] ^ 1]) + value[1:])


def _replaced(sub: Submission, paths: ReceiptPaths, receipt=None) -> list:
    """Records made by ``replace`` from a submission, receipt paths and, if
    given, a receipt of them and its issuer commitment, each after the
    original has given its bytes."""
    for record in (sub, paths, receipt):
        if record is not None:
            record.to_bytes()
    new_sub = dataclasses.replace(sub, holder_root=_flip(sub.holder_root))
    inclusion = paths.inclusion
    new_paths = dataclasses.replace(paths, inclusion=inclusion._replace(siblings=(_flip(inclusion.siblings[0]), *inclusion.siblings[1:])))
    replaced = [new_sub, dataclasses.replace(sub, signature=_flip(sub.signature)), new_paths]
    if receipt is not None:
        c = receipt.issuer_commitment
        c.to_bytes()
        new_c = dataclasses.replace(c, round=c.round + 1)
        replaced += [
            new_c,
            dataclasses.replace(c, leaf_count=c.leaf_count + 1),
            dataclasses.replace(receipt, submission=new_sub),
            dataclasses.replace(receipt, paths=new_paths),
            dataclasses.replace(receipt, prev_digest=_flip(receipt.prev_digest)),
            dataclasses.replace(receipt, issuer_commitment=new_c),
        ]
    return replaced


@pytest.mark.parametrize("origin", ["decoded", "spliced", "simulated"])
def test_replace_encodes_the_new_fields(ci_proofs, origin):
    # "spliced": a receipt made of a decoded proof's parts and the issuer's commitment.
    proof, sim = ci_proofs["link"]
    h0, hub = sim.nodes["h0"], sim.nodes["hub"]
    if origin == "simulated":
        receipt, commitment, link = h0.receipt_log[hub.node_id, 1], h0.records[1].commitment, h0.records[2].link
        sub, paths = receipt.submission, receipt.paths
    else:
        decoded = decode_proof(encode_proof(proof))
        first, commitment, link = decoded.rounds[0], decoded.holder_chain.commitments[0], decoded.holder_chain.links[0]
        sub, paths = submission_of(commitment, first.signature), first.receipts[0]
        receipt = Receipt(sub, hub.records[2].commitment, first.prev_digests[0], paths) if origin == "spliced" else None
    commitment.to_bytes()
    link.to_bytes()
    path = link.proof
    records = _replaced(sub, paths, receipt) + [
        dataclasses.replace(commitment, root=_flip(commitment.root)),
        dataclasses.replace(link, proof=path._replace(siblings=(_flip(path.siblings[0]), *path.siblings[1:]))),
    ]
    for record in records:
        assert_encodes_its_fields(record)
    old = {sub.to_bytes(), paths.to_bytes(), commitment.to_bytes(), link.to_bytes()}
    if receipt is not None:
        old |= {receipt.to_bytes(), receipt.issuer_commitment.to_bytes()}
    assert not old & {record.to_bytes() for record in records}


def test_issued_receipts_hold_their_bytes(monkeypatch):
    """An issued receipt's parts hold their bytes before its first
    ``to_bytes()``, the reference writer's: its paths those a proof writes.
    The receipt keeps no second copy of them, only its paths in the
    receipt's form, built when it is made.  Its bytes are these, joined."""
    issued = []
    issue = Node.issue_receipt

    def checked(node, sub):
        receipt = issue(node, sub)
        for part in (receipt.paths, receipt.submission, receipt.issuer_commitment):
            assert vars(part)["_encoding"] == write(type(part).__name__, part)
        assert "_encoding" not in vars(receipt)
        assert receipt.to_bytes() == write("Receipt", receipt)
        c = receipt.issuer_commitment
        assert vars(receipt)["_paths_encoding"] == reference.receipt_paths(receipt.paths, receipt.prev_digest, c.leaf_count)
        issued.append(receipt)
        return receipt

    monkeypatch.setattr(Node, "issue_receipt", checked)
    Simulation(fan(3), rounds=4, seed=3).run()
    assert len(issued) == 3 * 3


def _issuer_ids(part):
    """The issuers a link or hub proof names, in the order its rounds hold their receipts."""
    return part.manifest if isinstance(part, HubProof) else (part.issuer_id,)


def test_receipt_leaf_is_the_evidence_leaf_join(ci_proofs, monkeypatch):
    """A retained receipt's leaf and a verifier's are one join, ``evidence_leaf``."""
    _, sim = ci_proofs["hub"]
    joined = []
    join = node_module.evidence_leaf
    monkeypatch.setattr(node_module, "evidence_leaf", lambda *parts: joined.append(parts) or join(*parts))
    for receipt in sim.nodes["center"].receipt_log.values():
        leaf = receipt.leaf_bytes()
        c = receipt.issuer_commitment
        assert joined.pop() == (receipt.submission, c, reference.receipt_paths(receipt.paths, receipt.prev_digest, c.leaf_count))
        assert leaf == write("EvidenceLeaf", receipt)


def _parts(proof):
    """(holder id, issuer id, round, holder chain commitment r, the round's
    signature, paths, the written prev digest or None) for every receipt a
    proof holds."""
    for part in proof.hops if isinstance(proof, ChainProof) else (proof,):
        for r, c, rnd in zip(range(part.window_start, part.window_end + 1), part.holder_chain.commitments, part.rounds):
            written = rnd.prev_digests or [None] * len(rnd.receipts)
            for issuer_id, paths, prev_digest in zip(_issuer_ids(part), rnd.receipts, written, strict=True):
                yield part.holder_id, issuer_id, r, c, rnd.signature, paths, prev_digest


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
def test_proof_receipts_splice_back_to_the_retained_ones(ci_proofs, kind):
    """A proof's signature and paths for an issuer round are the retained
    receipt's, and so is the prev digest its window's first round writes;
    with the holder chain commitment they rebuild its submission, and with
    its issuer commitment and that digest give the retained bytes.  Later
    rounds' paths write no digest: with the trusted issuer round-r
    commitment's they splice back to the retained bytes too.  A built proof
    holds the retained objects themselves: nothing is copied."""
    proof, sim = ci_proofs[kind]
    logs = {node.node_id: node.receipt_log for node in sim.nodes.values()}
    records = sim.records_by_id()
    spliced = later = 0
    for holder_id, issuer_id, r, c, signature, paths, prev_digest in _parts(proof):
        retained = logs[holder_id][issuer_id, r]
        assert signature is retained.submission.signature and paths is retained.paths
        assert prev_digest is None or prev_digest is retained.prev_digest
    for holder_id, issuer_id, r, c, signature, paths, prev_digest in _parts(decode_proof(encode_proof(proof))):
        retained = logs[holder_id][issuer_id, r]
        sub = submission_of(c, signature)
        if prev_digest is None:
            prev_digest, later = commitment_digest(records[issuer_id][r].commitment), later + 1
        assert (sub, paths, prev_digest) == (retained.submission, retained.paths, retained.prev_digest)
        assert sub.to_bytes() == retained.submission.to_bytes()
        full = Receipt(sub, retained.issuer_commitment, prev_digest, paths)
        assert full == retained and full.to_bytes() == retained.to_bytes()
        assert_encodes_its_fields(full)
        spliced += 1
    assert spliced >= 4 and later >= 3


def test_decoded_link_keeps_the_slice_it_read(ci_proofs):
    link = ci_proofs["chain"][0].hops[0].holder_chain.links[0]
    body = link.to_bytes()
    data = b"head" + body + b"tail"
    r = Reader(data)
    r.u32()  # past the 4-byte head
    decoded = ChainLink.read(r)
    assert r.remaining() == 4
    assert vars(decoded)["_encoding"] == data[4:-4] == body  # kept when read, not encoded again
    assert decoded == link


def test_kept_links_match_fresh_reference_links():
    """After a run, each record's chain link, made with the record, has the
    bytes of the path of the record's first leaf, as it stands, written
    field by field, and the receipts the record's round issued share its path."""
    sim = Simulation(federated(3, 3, 18), rounds=20, seed=3, audit_every=5).run()
    kept = 0
    for node in sim.nodes.values():
        for record in node.records:
            link = record.link
            if link is None:
                assert record.state is None and record.tree is None
                continue
            assert record.state is not None and record.tree is not None
            assert link.to_bytes() == write("ChainLink", ChainLink(record.tree.prove_inclusion(0)))
            kept += 1
    assert kept >= 20 * 18  # every holder round keeps its link at least
    # A receipt's prev-leaf proof is its issuer round's link path, not a copy.
    records = {node.node_id: node.records for node in sim.nodes.values()}
    shared = 0
    for node in sim.nodes.values():
        for receipt in node.receipt_log.values():
            link = records[receipt.issuer_id][receipt.issuer_round].link
            if link is not None:
                assert receipt.paths.prev_inclusion is link.proof
                shared += 1
    assert shared >= 18 * 18


def _verify(proof, sim):
    """Verify ``proof`` against the run's anchor logs, as the CLI does: all of
    them for a hub proof, else the named issuer's or anchor's (None if absent)."""
    logs = {
        sim.nodes[label].node_id: {record.round: record.commitment for record in sim.nodes[label].records}
        for label in sim.topology.anchors
    }
    if isinstance(proof, HubProof):
        return verify_hub(proof, logs, sim.directory)
    if isinstance(proof, ChainProof):
        trust = logs.get(proof.anchor_id)
        return None if trust is None else verify_chain(proof, trust, sim.directory)
    trust = logs.get(proof.issuer_id)
    return None if trust is None else verify_link(proof, trust, sim.directory)


def retained_leaf(sim):
    """The evidence leaf the holder retained for an issuer and round: its
    receipt's leaf bytes in the holder's round r + 2 state."""
    records = sim.records_by_id()

    def leaf(holder_id, issuer_id, r, sub, prev_digest, paths, c):
        state = records[holder_id][r + EVIDENCE_LAG].state
        return next(rc for rc in state.evidence if (rc.issuer_id, rc.holder_round) == (issuer_id, r)).leaf_bytes()

    return leaf


def composed_leaf(holder_id, issuer_id, r, sub, prev_digest, paths, c):
    """The leaf of the receipt made of ``sub``, issuer commitment ``c``, ``prev_digest`` and ``paths``."""
    return Receipt(sub, c, prev_digest, paths).leaf_bytes()


def verify_against_spliced_leaves(proof, sim, reference_leaf, reference_paths=None):
    """Verify ``proof``, holding each evidence leaf the verifier joins to
    ``reference_leaf(holder_id, issuer_id, r, sub, prev_digest, paths, c)``
    for the trusted issuer commitment ``c`` and prev digest it joins, and each window round's run of
    leaves it folds to the reference leaves of that round's receipts, one per
    link of the holder's proof part, in link order.  With
    ``reference_paths``, the receipt-form paths the verifier rebuilds are
    held to ``reference_paths(holder_id, issuer_id, r)`` too, byte for byte.
    Returns the verdict and the number of runs compared."""
    joined, runs_compared = [], []  # joined: (issuer id, reference leaf) since the last run
    rebuilt = []  # the ReceiptPaths, and the prev digest, whose receipt form was just rebuilt
    join, fold, rebuild = entangle.evidence_leaf, entangle._Call.proves, entangle.receipt_paths
    parts = proof.hops if isinstance(proof, ChainProof) else (proof,)

    def link_orders(holder_id):
        return {tuple(_issuer_ids(part)) for part in parts if part.holder_id == holder_id}

    def receipt_paths(paths, prev_digest, leaf_count):
        rebuilt.append((paths, prev_digest))
        return rebuild(paths, prev_digest, leaf_count)

    def leaf(sub, c, paths_bytes):
        paths, prev_digest = rebuilt.pop()
        assert paths_bytes == reference.receipt_paths(paths, prev_digest, c.leaf_count)
        if reference_paths is not None:
            assert paths_bytes == reference_paths(sub.holder_id, c.node_id, sub.holder_round)
        joined.append((c.node_id, reference_leaf(sub.holder_id, c.node_id, sub.holder_round, sub, prev_digest, paths, c)))
        assert join(sub, c, paths_bytes) == joined[-1][1]
        return joined[-1][1]

    def proves(call, c, leaf_hashes, proof):
        if joined and leaf_hashes[0] == leaf_hash(joined[0][1]):  # a round's run, folded in the holder's round r + 2 tree
            assert tuple(leaf_hashes) == tuple(leaf_hash(reference) for _, reference in joined)
            assert tuple(issuer_id for issuer_id, _ in joined) in link_orders(c.node_id)
            joined.clear()
            runs_compared.append(c.round - EVIDENCE_LAG)
        return fold(call, c, leaf_hashes, proof)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entangle, "evidence_leaf", leaf)
        patch.setattr(entangle, "receipt_paths", receipt_paths)
        patch.setattr(entangle._Call, "proves", proves)
        verdict = _verify(proof, sim)
    return verdict, len(runs_compared)


def retained_paths(sim):
    """The receipt-form paths a holder retained for an issuer and round: its
    receipt's own, which the receipt built when it was first written."""
    logs = {node.node_id: node.receipt_log for node in sim.nodes.values()}

    def paths(holder_id, issuer_id, r):
        receipt = logs[holder_id][issuer_id, r]
        return vars(receipt)["_paths_encoding"]

    return paths


def _window_rounds(proof) -> int:
    parts = proof.hops if isinstance(proof, ChainProof) else (proof,)
    return sum(part.window_end - part.window_start + 1 for part in parts)


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
def test_ci_proof_folds_the_spliced_evidence_leaves(ci_proofs, kind):
    proof, sim = ci_proofs[kind]
    for candidate in (proof, decode_proof(encode_proof(proof))):
        verdict, runs = verify_against_spliced_leaves(candidate, sim, retained_leaf(sim), retained_paths(sim))
        assert verdict
        assert runs == _window_rounds(proof)


@pytest.mark.parametrize("n", [1, 5, 40])
@pytest.mark.parametrize("w", [1, 2, 4])
def test_fan_hub_proof_folds_the_spliced_evidence_leaves(fan_runs, n, w):
    center = fan_runs[n].nodes["center"]
    proof = decode_proof(encode_proof(build_hub_proof(center.records, (1, w), center.receipt_log)))
    verdict, runs = verify_against_spliced_leaves(proof, fan_runs[n], retained_leaf(fan_runs[n]), retained_paths(fan_runs[n]))
    assert verdict
    assert runs == w


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_decodable_mutation_folds_the_spliced_evidence_leaves(ci_proofs, kind, data):
    proof, sim = ci_proofs[kind]
    blob = data.draw(mutated(encode_proof(proof)), label="mutated")
    try:
        decoded = decode_proof(blob)
    except (WireError, ValueError):
        return
    verify_against_spliced_leaves(decoded, sim, composed_leaf)


def test_verifiers_copy_no_receipt(ci_proofs, fan_runs):
    """Each receipt is checked against its trusted issuer commitment in
    place: with no ``Receipt`` able to be made, every verifier still accepts
    the CI proofs and the fan(40) hub proof, with the same counts."""
    proofs = [(candidate, sim) for proof, sim in ci_proofs.values() for candidate in (proof, decode_proof(encode_proof(proof)))]
    center = fan_runs[40].nodes["center"]
    fan40 = decode_proof(encode_proof(build_hub_proof(center.records, (1, 4), center.receipt_log)))

    def refuse(receipt, *fields):
        raise AssertionError("a verifier made a receipt")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Receipt, "__init__", refuse)
        verdicts = [_verify(proof, sim) for proof, sim in proofs]
        fan_verdict = _verify(fan40, fan_runs[40])
    assert all(verdicts) and len(verdicts) == 6
    assert fan_verdict
    assert (fan_verdict.signatures_checked, fan_verdict.inclusion_proofs_checked) == (1, 333)


def _verify_counting_folds(proof, sim):
    """``_verify(proof, sim)`` and the calls it made to ``hashtree.verify_inclusion``,
    wrapped in every ``entmesh`` module that binds it, as perfbench's tracer wraps it."""
    calls, fold = [], hashtree.verify_inclusion

    def counted(*args):
        calls.append(args)
        return fold(*args)

    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if module is not None and (name == "entmesh" or name.startswith("entmesh.")):
                for attr, value in list(vars(module).items()):
                    if value is fold:
                        patch.setattr(module, attr, counted)
        verdict = _verify(proof, sim)
    return verdict, len(calls)


def _assert_folds_counted(proof, sim):
    """An honest verify of ``proof`` counts exactly the folds it makes, and
    ``owed_checks`` reads its counts from the proof's structure."""
    verdict, folds = _verify_counting_folds(proof, sim)
    assert verdict
    assert verdict.inclusion_proofs_checked == folds
    assert owed_checks(proof) == (verdict.signatures_checked, folds)


@pytest.mark.parametrize("kind", ["hub", "chain", "link"])
def test_ci_proof_counts_the_folds_it_makes(ci_proofs, kind):
    proof, sim = ci_proofs[kind]
    for candidate in (proof, decode_proof(encode_proof(proof))):
        _assert_folds_counted(candidate, sim)


@pytest.mark.parametrize("n", [1, 5, 40])
@pytest.mark.parametrize("w", [1, 2, 4])
def test_fan_hub_counts_the_folds_it_makes(fan_runs, n, w):
    center = fan_runs[n].nodes["center"]
    proof = decode_proof(encode_proof(build_hub_proof(center.records, (1, w), center.receipt_log)))
    _assert_folds_counted(proof, fan_runs[n])


@pytest.mark.parametrize("leaf_count", [5, 6, 7])
def test_a_verify_that_tries_the_heads_other_leaf_counts_counts_those_folds(fan_runs, leaf_count):
    # The last window round's evidence fails to fold against a head whose
    # leaf count was altered, so the verifier folds it at the head's other
    # leaf counts before it checks the head's signature.
    center = fan_runs[5].nodes["center"]
    proof = build_hub_proof(center.records, (1, 4), center.receipt_log)
    *kept, head = proof.holder_chain.commitments
    verdict, folds = _verify_counting_folds(with_chain(proof, commitments=(*kept, dataclasses.replace(head, leaf_count=leaf_count))), fan_runs[5])
    assert (verdict.reason, verdict.detail) == ("LinkFailed", f"holder chain: BadSignature (round {head.round})")
    assert verdict.inclusion_proofs_checked == folds
