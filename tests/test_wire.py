"""Byte-level encoding: strict reads, bounded blobs, proof round trips."""

import dataclasses
import struct
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence
from unittest import mock

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

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def read_u64(r: Reader) -> int:
    """A lone u64, which ``Reader`` does not read: a record's u64 fields are
    unpacked with its head (``wire.Head``)."""
    return struct.unpack(">Q", r._take(8))[0]


class TestWriterReader:
    def test_scalar_round_trip(self):
        data = Writer().u32(70_000).u64(1 << 40).getvalue()
        r = Reader(data)
        assert (r.u32(), read_u64(r)) == (70_000, 1 << 40)
        r.expect_eof()

    def test_big_endian_layout(self):
        assert Writer().u32(1).getvalue() == b"\x00\x00\x00\x01"
        assert Writer().u64(258).getvalue() == b"\x00" * 6 + b"\x01\x02"

    def test_blob_round_trip(self):
        data = Writer().blob(b"payload").blob(b"").getvalue()
        r = Reader(data)
        assert r.blob() == b"payload"
        assert r.blob() == b""
        r.expect_eof()

    def test_digest_requires_32_bytes(self):
        with pytest.raises(WireError):
            Writer().digest(b"short")

    def test_out_of_range_scalars(self):
        with pytest.raises(WireError):
            Writer().u8(256)
        with pytest.raises(WireError):
            Writer().u32(-1)
        with pytest.raises(WireError):
            Writer().u64(1 << 64)

    def test_short_read(self):
        r = Reader(b"\x00\x01")
        with pytest.raises(WireError):
            r.u32()

    def test_blob_length_bound(self):
        data = Writer().blob(b"x" * 100).getvalue()
        with pytest.raises(WireError):
            Reader(data).blob(max_len=10)

    def test_blob_truncated_body(self):
        data = Writer().u32(50).getvalue() + b"only-a-little"
        with pytest.raises(WireError):
            Reader(data).blob()

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
        r = Reader(Writer().digests(ids).getvalue())
        back = r.digests("ids", 3)
        r.expect_eof()
        assert back == tuple(ids) and all(type(d) is Digest for d in back)

    def test_digests_bound_and_truncation(self):
        data = Writer().digests([bytes(32)] * 3).getvalue()
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
        data = struct.pack(">QI", 0, MAX_AUDIT_STEPS + 1)
        with pytest.raises(WireError, match=f"^too many audit steps: {MAX_AUDIT_STEPS + 1}$"):
            read_inclusion_proof(Reader(data))
        with pytest.raises(WireError, match=f"^too many audit steps: {MAX_AUDIT_STEPS + 1}$"):
            read_inclusion_proof(Reader(data[8:]), 0)

    def test_audit_path_bound(self):
        sibling = MerkleTree([b"a"]).root
        at_bound = InclusionProof(leaf_index=0, siblings=(sibling,) * 64)
        assert decode(encode_inclusion_proof(at_bound), read_inclusion_proof) == at_bound
        over = struct.pack(">QI", 0, 65) + sibling * 65
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
        assert decoded == copying_decode(blob, stepwise_read_inclusion_proof)


# Slow references, written from docs/FORMATS.md: a field-by-field writer,
# and a decoder that copies every blob.


class Writer:
    """The field-by-field reference writer, one method and one range check
    per field, which the tests hold the record encoders to.  No encoder in
    the library uses it: each writes one join of kept bytes."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, v: int) -> "Writer":
        if not 0 <= v <= 0xFF:
            raise WireError(f"u8 out of range: {v}")
        self._buf.append(v)
        return self

    def u32(self, v: int) -> "Writer":
        if not 0 <= v <= 0xFFFF_FFFF:
            raise WireError(f"u32 out of range: {v}")
        self._buf += struct.pack(">I", v)
        return self

    def u64(self, v: int) -> "Writer":
        if not 0 <= v <= 0xFFFF_FFFF_FFFF_FFFF:
            raise WireError(f"u64 out of range: {v}")
        self._buf += struct.pack(">Q", v)
        return self

    def digest(self, d: bytes) -> "Writer":
        if len(d) != DIGEST_SIZE:
            raise WireError(f"digest must be {DIGEST_SIZE} bytes")
        self._buf += d
        return self

    def blob(self, b: bytes) -> "Writer":
        # Length-prefixed variable bytes.
        self.u32(len(b))
        self._buf += b
        return self

    def record(self, b: bytes) -> "Writer":
        # A record another reference writer wrote, bare: its fields end it.
        self._buf += b
        return self

    def digests(self, items: Sequence[bytes]) -> "Writer":
        # A u32 count, then each digest.
        self.u32(len(items))
        for d in items:
            self.digest(d)
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)


# A slow reference decoder, written from docs/FORMATS.md: every field is
# copied out of the buffer as it is read, and a path is read field by field,
# one sibling at a time.  ``reference_decode_proof`` runs the library's
# record readers on it.


class CopyingReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise WireError("truncated input")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def digest(self) -> Digest:
        return Digest(self._take(32))

    def blob(self, max_len: int = 1 << 24) -> bytes:
        n = self.u32()
        if n > max_len:
            raise WireError(f"blob length {n} exceeds limit")
        return self._take(n)

    def many(self, read, what: str, limit: int) -> tuple:
        count = self.u32()
        if count > limit:
            raise WireError(f"too many {what}: {count}")
        return tuple([read(self) for _ in range(count)])

    def digests(self, what: str, limit: int) -> tuple:
        return self.many(CopyingReader.digest, what, limit)

    def tell(self) -> int:
        return self._pos

    def since(self, start: int) -> bytes:
        return self._data[start : self._pos]

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_eof(self) -> None:
        if self._pos != len(self._data):
            raise WireError(f"{self.remaining()} trailing bytes")


def copying_decode(data: bytes, read):
    r = CopyingReader(data)
    value = read(r)
    r.expect_eof()
    return value


def stepwise_read_inclusion_proof(r, index=None) -> InclusionProof:
    # A path in a proof: the u64 leaf index unless the format fixes it, then
    # a u32 count of at most MAX_AUDIT_STEPS and that many 32-byte siblings.
    leaf_index = r.u64() if index is None else index
    siblings = r.many(CopyingReader.digest, "audit steps", MAX_AUDIT_STEPS)
    return InclusionProof(leaf_index=leaf_index, siblings=siblings)


def stepwise_read_receipt_paths(r, count: int) -> tuple:
    # A window round's receipt paths: per receipt the submission leaf's path
    # with its index, then the first leaf's at index 0, each made by the
    # ReceiptPaths constructor with the bytes it was read from.
    made = []
    for _ in range(count):
        start = r.tell()
        inclusion, prev_inclusion = stepwise_read_inclusion_proof(r), stepwise_read_inclusion_proof(r, 0)
        made.append(node.ReceiptPaths(inclusion, prev_inclusion, encoding=r.since(start)))
    return tuple(made)


def reference_decode_proof(data: bytes):
    with (
        mock.patch.object(entangle, "decode", copying_decode),
        mock.patch.object(entangle, "read_inclusion_proof", stepwise_read_inclusion_proof),
        mock.patch.object(node, "read_inclusion_proof", stepwise_read_inclusion_proof),
        mock.patch.object(node.ReceiptPaths, "read_many", staticmethod(stepwise_read_receipt_paths)),
    ):
        return entangle.decode_proof(data)


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
    assert decoded == reference_decode_proof(blob)
    assert entangle.encode_proof(decoded) == blob


@st.composite
def _mutated(draw, blob: bytes) -> bytes:
    how = draw(st.sampled_from(["xor", "truncate", "append"]))
    if how == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if how == "append":
        return blob + draw(st.binary(min_size=1, max_size=40))
    data = bytearray(blob)
    for position in draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=8, unique=True)):
        data[position] ^= draw(st.integers(1, 255))
    return bytes(data)


@pytest.mark.parametrize("kind", ["link", "hub", "chain"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_proof_decodes_like_the_reference(encoded_proofs, kind, data):
    blob = data.draw(_mutated(encoded_proofs[kind]), label="mutated")
    assert _outcome(entangle.decode_proof, blob) == _outcome(reference_decode_proof, blob)



# Commitments unpack their fixed head at once.  This reference reads each
# of their fields in turn, on the slow copying reader above with its
# step-by-step path reader.  A proof holds no Submission: a window round
# holds the holder's signature as a blob, which the copying reader reads.


def fieldwise_read_commitment(r) -> node.Commitment:
    start = r.tell()
    fields = r.digest(), r.u64(), r.digest(), r.u64(), r.blob(node.MAX_SIGNATURE)
    return node.Commitment(*fields, encoding=r.since(start))


def fieldwise_decode_proof(data: bytes):
    with mock.patch.object(node.Commitment, "read", staticmethod(fieldwise_read_commitment)):
        return reference_decode_proof(data)


@pytest.mark.parametrize("kind", ["link", "hub", "chain"])
def test_pristine_proof_decodes_like_the_fieldwise_reference(encoded_proofs, kind):
    blob = encoded_proofs[kind]
    assert entangle.decode_proof(blob) == fieldwise_decode_proof(blob)


@pytest.mark.parametrize("kind", ["link", "hub", "chain"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_proof_decodes_like_the_fieldwise_reference(encoded_proofs, kind, data):
    blob = data.draw(_mutated(encoded_proofs[kind]), label="mutated")
    assert _outcome(entangle.decode_proof, blob) == _outcome(fieldwise_decode_proof, blob)


@pytest.mark.parametrize(
    "read, fieldwise",
    [(node.Commitment.read, fieldwise_read_commitment)],
    ids=["commitment"],
)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_head_reads_like_the_fieldwise_reference(encoded_proofs, read, fieldwise, data):
    # A holder chain commitment, cut, lengthened or flipped.
    link = entangle.decode_proof(encoded_proofs["link"])
    blob = data.draw(_mutated(link.holder_chain.commitments[0].to_bytes()), label="mutated")
    assert _outcome(lambda b: decode(b, read), blob) == _outcome(lambda b: copying_decode(b, fieldwise), blob)


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
