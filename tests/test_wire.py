"""Byte-level encoding: strict reads, bounded blobs, proof round trips."""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmesh import entangle, node
from entmesh.config import load_config, make_simulation
from entmesh.hashtree import DIGEST_SIZE, Digest, InclusionProof, MerkleTree
from entmesh.wire import (
    MAX_AUDIT_STEPS,
    Reader,
    WireError,
    decode,
    encode_inclusion_proof,
    read_inclusion_proof,
)

import reference
from adversary import mutated
from reference import write

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestWriterReader:
    """The library's ``Reader`` on the reference writer's bytes, and the
    reference's scalars.  ``Reader`` reads no lone u64: a record's u64
    fields are unpacked with its head (``wire.Head``)."""

    def test_scalar_round_trip(self):
        r = Reader(write("u32", 70_000) + write("u64", 1 << 40))
        assert r.u32() == 70_000 and reference.decode(r._take(8), "u64") == 1 << 40
        r.expect_eof()

    def test_big_endian_layout(self):
        assert write("u32", 1) == b"\x00\x00\x00\x01"
        assert write("u64", 258) == b"\x00" * 6 + b"\x01\x02"

    def test_blob_round_trip(self):
        r = Reader(write("blob", b"payload") + write("blob", b""))
        assert r.blob() == b"payload"
        assert r.blob() == b""
        r.expect_eof()

    def test_digest_requires_32_bytes(self):
        with pytest.raises(WireError):
            write("digest", b"short")

    def test_out_of_range_scalars(self):
        for kind, value in (("u8", 256), ("u32", -1), ("u64", 1 << 64)):
            with pytest.raises(WireError, match=f"^{kind} out of range: {value}$"):
                write(kind, value)

    def test_short_read(self):
        r = Reader(b"\x00\x01")
        with pytest.raises(WireError):
            r.u32()

    def test_blob_length_bound(self):
        with pytest.raises(WireError):
            Reader(write("blob", b"x" * 100)).blob(max_len=10)

    def test_blob_truncated_body(self):
        with pytest.raises(WireError):
            Reader(write("u32", 50) + b"only-a-little").blob()

    def test_expect_eof_rejects_trailing(self):
        r = Reader(b"\x00\x00\x00\x01\x02")
        r.u32()
        with pytest.raises(WireError):
            r.expect_eof()

    def test_remaining(self):
        r = Reader(b"\x00\x00\x00\x01\x02\x03")
        r.u32()
        assert r.remaining() == 2

    def test_digests_round_trip(self):
        ids = [Digest(bytes([i]) * 32) for i in range(3)]
        r = Reader(write("list<digest>", ids))
        back = r.digests("ids", 3)
        r.expect_eof()
        assert back == tuple(ids) and all(type(d) is Digest for d in back)

    def test_digests_bound_and_truncation(self):
        data = write("list<digest>", [bytes(32)] * 3)
        with pytest.raises(WireError, match="^too many ids: 3$"):
            Reader(data).digests("ids", 2)
        with pytest.raises(WireError, match="^truncated input$"):
            Reader(data[:-1]).digests("ids", 3)


def test_inclusion_proof_checks_nothing_in_post_init():
    # A reader makes paths by ``tuple.__new__``, skipping the constructor, so
    # a check there would be skipped too.
    assert issubclass(InclusionProof, tuple)
    assert not hasattr(InclusionProof, "__post_init__")


class TestInclusionProofWire:
    @pytest.mark.parametrize("n,index", [(1, 0), (2, 1), (5, 3), (11, 7)])
    def test_round_trip(self, n, index):
        tree = MerkleTree([bytes([i]) for i in range(n)])
        proof = tree.prove_inclusion(index)
        for fixed in (None, index):
            data = encode_inclusion_proof(proof, fixed)
            r = Reader(data)
            back = read_inclusion_proof(r, fixed)
            r.expect_eof()
            assert back == proof
            assert len(data) == (12 if fixed is None else 4) + 32 * len(proof.siblings)

    def test_head_cut_short_at_the_end(self):
        # The buffer ends 2 bytes into a 12-byte head, or inside a fixed-index path's 4-byte count.
        for data, fixed in ((bytes(10), None), (bytes(3), 0)):
            with pytest.raises(WireError, match="^truncated input$"):
                read_inclusion_proof(Reader(data), fixed)

    def test_step_count_checked_before_the_steps(self):
        data = write("u64", 0) + write("u32", MAX_AUDIT_STEPS + 1)
        with pytest.raises(WireError, match=f"^too many audit steps: {MAX_AUDIT_STEPS + 1}$"):
            read_inclusion_proof(Reader(data))
        with pytest.raises(WireError, match=f"^too many audit steps: {MAX_AUDIT_STEPS + 1}$"):
            read_inclusion_proof(Reader(data[8:]), 0)

    def test_audit_path_bound(self):
        sibling = MerkleTree([b"a"]).root
        at_bound = InclusionProof(leaf_index=0, siblings=(sibling,) * 64)
        assert decode(encode_inclusion_proof(at_bound), read_inclusion_proof) == at_bound
        over = write("u64", 0) + write("u32", 65) + sibling * 65
        with pytest.raises(WireError):
            read_inclusion_proof(Reader(over))

    def test_fixed_index_is_not_written_and_must_hold(self):
        proof = MerkleTree([bytes([i]) for i in range(5)]).prove_inclusion(2)
        assert encode_inclusion_proof(proof, 2) == encode_inclusion_proof(proof)[8:]
        with pytest.raises(WireError, match="^path at leaf 2, not at leaf 0$"):
            encode_inclusion_proof(proof, 0)


class TestInclusionProofEncoderRefuses:
    """The encoders refuse every path the reader would refuse, and the
    receipt form every head that is not a u64, u64, u32."""

    SIBLING = MerkleTree([b"a"]).root

    def test_more_than_max_audit_steps(self):
        path = InclusionProof(leaf_index=0, siblings=(self.SIBLING,) * (MAX_AUDIT_STEPS + 1))
        for fixed in (None, 0):
            with pytest.raises(WireError, match=f"^too many audit steps: {MAX_AUDIT_STEPS + 1}$"):
                encode_inclusion_proof(path, fixed)

    @pytest.mark.parametrize("index,size", [(-1, 1), (0, 2**64), (0.5, 1)])
    def test_index_or_size_not_a_u64(self, index, size):
        path = InclusionProof(leaf_index=index, siblings=())
        # The receipt form, written by node.receipt_paths from a stand-in
        # that no ReceiptPaths constructor would refuse first.
        paths = SimpleNamespace(inclusion=path, prev_inclusion=InclusionProof(leaf_index=0, siblings=()))
        with pytest.raises(WireError, match="^inclusion proof head: "):
            node.receipt_paths(paths, bytes(DIGEST_SIZE), size)
        if index != 0:  # a proof writes the index alone
            with pytest.raises(WireError, match=f"^u64 out of range: {index}$"):
                encode_inclusion_proof(path)

    @pytest.mark.parametrize("cut", [1, 32, 34])
    def test_path_not_whole_steps(self, cut):
        # A sibling of 64, 33 or 31 bytes: a path that is not whole digests.
        siblings = (self.SIBLING, (self.SIBLING * 2)[: 65 - cut])
        with pytest.raises(WireError, match="^digest must be 32 bytes$"):
            encode_inclusion_proof(InclusionProof(leaf_index=3, siblings=siblings))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=16), min_size=1, max_size=20), st.data())
def test_proof_wire_property(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    encoded = encode_inclusion_proof(tree.prove_inclusion(index))
    assert read_inclusion_proof(Reader(encoded)) == tree.prove_inclusion(index)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=300))
def test_every_proof_round_trips_as_its_step_bytes(n):
    tree = MerkleTree([i.to_bytes(2, "big") for i in range(n)])
    for i in range(n):
        proof = tree.prove_inclusion(i)
        blob = encode_inclusion_proof(proof)
        decoded = decode(blob, read_inclusion_proof)
        assert decoded == proof
        assert encode_inclusion_proof(decoded) == blob
        assert all(type(sibling) is bytes for sibling in decoded.siblings) and b"".join(decoded.siblings) == blob[12:]
        # The siblings the encoding holds are the ones a sibling-by-sibling read sees.
        assert decoded == reference.decode(blob, "path")


def _outcome(decoder, data: bytes):
    try:
        return ("decoded", decoder(data))
    except Exception as exc:  # the two decoders must fail alike, whatever the type
        return ("raised", type(exc), str(exc))


def _run(name: str):
    sim = make_simulation(load_config(SCENARIOS / name))
    sim.run()
    return sim


@pytest.fixture(scope="module")
def encoded_proofs():
    link_sim = _run("link.yaml")
    h0 = link_sim.nodes["h0"]
    link = entangle.build_link_proof(h0.records, link_sim.nodes["hub"].node_id, (1, 4), h0.receipt_log)
    hub_sim = _run("hub.yaml")
    center = hub_sim.nodes["center"]
    hub = entangle.build_hub_proof(center.records, (1, 4), center.receipt_log)
    chain_sim = _run("chain.yaml")
    ids = [chain_sim.nodes[label].node_id for label in chain_sim.path_to_anchor("h0")]
    chain = entangle.build_chain_proof(chain_sim.records_by_id(), chain_sim.receipts_by_id(), ids, 1, 2)
    return {kind: entangle.encode_proof(proof) for kind, proof in (("link", link), ("hub", hub), ("chain", chain))}


@pytest.mark.parametrize("kind", ["link", "hub", "chain"])
def test_pristine_proof_decodes_like_the_reference(encoded_proofs, kind):
    blob = encoded_proofs[kind]
    decoded = entangle.decode_proof(blob)
    assert decoded == reference.decode(blob)
    assert entangle.encode_proof(decoded) == blob == reference.encode(decoded)


@pytest.mark.parametrize("kind", ["link", "hub", "chain"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_proof_decodes_like_the_reference(encoded_proofs, kind, data):
    blob = data.draw(mutated(encoded_proofs[kind]), label="mutated")
    assert _outcome(entangle.decode_proof, blob) == _outcome(reference.decode, blob)



@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_head_reads_like_the_reference(encoded_proofs, data):
    # A holder chain commitment, cut, lengthened or flipped: its reader
    # unpacks its fixed head at once, and the reference reads each field in turn.
    link = entangle.decode_proof(encoded_proofs["link"])
    blob = data.draw(mutated(link.holder_chain.commitments[0].to_bytes()), label="mutated")
    assert _outcome(node.Commitment.from_bytes, blob) == _outcome(lambda b: reference.decode(b, "Commitment"), blob)


class TestRecordEncodersRefuse:
    """Record and proof encoders refuse what the field-by-field writer refused, with its text."""

    @pytest.fixture(scope="class")
    def proofs(self, encoded_proofs):
        return {kind: entangle.decode_proof(blob) for kind, blob in encoded_proofs.items()}

    def test_link_proof_with_a_short_issuer_id(self, proofs):
        bad = dataclasses.replace(proofs["link"], issuer_id=proofs["link"].issuer_id[:31])
        with pytest.raises(WireError, match="^digest must be 32 bytes$"):
            entangle.encode_proof(bad)

    def test_hub_proof_whose_manifest_holds_a_short_id(self, proofs):
        hub = proofs["hub"]
        bad = dataclasses.replace(hub, manifest=(hub.manifest[0][:31],) + hub.manifest[1:])
        with pytest.raises(WireError, match="^digest must be 32 bytes$"):
            entangle.encode_proof(bad)

    def test_commitment_with_a_short_root(self, proofs):
        c = proofs["link"].holder_chain.commitments[0]
        with pytest.raises(WireError, match="^digest must be 32 bytes$"):
            dataclasses.replace(c, root=c.root[:31]).to_bytes()

    def test_commitment_with_a_negative_round(self, proofs):
        c = proofs["link"].holder_chain.commitments[0]
        with pytest.raises(WireError, match="^u64 out of range: -1$"):
            dataclasses.replace(c, round=-1).to_bytes()

    def test_link_proof_refuses_its_first_bad_field(self, proofs):
        # The issuer id comes before the window rounds in wire order, so it is named first.
        link = proofs["link"]
        evidence = link.rounds[0].evidence_proof._replace(leaf_index=-1)
        rounds = (link.rounds[0]._replace(evidence_proof=evidence),) + link.rounds[1:]
        bad = dataclasses.replace(link, issuer_id=link.issuer_id + b"\x00", rounds=rounds)
        with pytest.raises(WireError, match="^digest must be 32 bytes$"):
            entangle.encode_proof(bad)
        with pytest.raises(WireError, match="^u64 out of range: -1$"):
            entangle.encode_proof(dataclasses.replace(link, rounds=rounds))

    def test_submission_chain_link_and_prev_digest_with_a_short_digest(self, proofs):
        link = proofs["link"]
        chain_link, first = link.holder_chain.links[0], link.rounds[0]
        sub = node.submission_of(link.holder_chain.commitments[0], link.rounds[0].signature)
        with pytest.raises(WireError, match="^digest must be 32 bytes$"):
            dataclasses.replace(sub, holder_root=sub.holder_root[:31]).to_bytes()
        with pytest.raises(WireError, match="^u64 out of range: 18446744073709551616$"):
            dataclasses.replace(sub, holder_round=2**64).to_bytes()
        with pytest.raises(WireError, match="^digest must be 32 bytes$"):
            dataclasses.replace(chain_link, proof=chain_link.proof._replace(siblings=(bytes(33),))).to_bytes()
        # A written prev digest is refused by the proof's encoder, which writes it.
        with pytest.raises(WireError, match="^digest must be 32 bytes$"):
            entangle.encode_proof(dataclasses.replace(link, rounds=(first._replace(prev_digests=(bytes(31),)),) + link.rounds[1:]))
