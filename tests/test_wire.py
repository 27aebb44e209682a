"""Byte-level encoding: strict reads, bounded blobs, proof round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmesh.hashtree import InclusionProof, MerkleTree, Side
from entmesh.wire import (
    Reader,
    WireError,
    Writer,
    decode,
    encode_inclusion_proof,
    read_inclusion_proof,
)


class TestWriterReader:
    def test_scalar_round_trip(self):
        data = Writer().u8(7).u32(70_000).u64(1 << 40).getvalue()
        r = Reader(data)
        assert (r.u8(), r.u32(), r.u64()) == (7, 70_000, 1 << 40)
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
        r = Reader(b"\x01\x02")
        r.u8()
        with pytest.raises(WireError):
            r.expect_eof()

    def test_remaining(self):
        r = Reader(b"\x01\x02\x03")
        r.u8()
        assert r.remaining() == 2


class TestInclusionProofWire:
    @pytest.mark.parametrize("n,index", [(1, 0), (2, 1), (5, 3), (11, 7)])
    def test_round_trip(self, n, index):
        tree = MerkleTree([bytes([i]) for i in range(n)])
        proof = tree.prove_inclusion(index)
        data = encode_inclusion_proof(proof)
        r = Reader(data)
        back = read_inclusion_proof(r)
        r.expect_eof()
        assert back == proof

    def test_bad_side_byte_rejected(self):
        tree = MerkleTree([b"a", b"b"])
        data = bytearray(encode_inclusion_proof(tree.prove_inclusion(0)))
        data[-33] = 9  # side marker of the only path step
        with pytest.raises(WireError):
            read_inclusion_proof(Reader(bytes(data)))

    def test_audit_path_bound(self):
        step = (Side.LEFT, MerkleTree([b"a"]).root)
        at_bound = InclusionProof(leaf_index=0, audit_path=(step,) * 64, tree_size=1)
        assert decode(encode_inclusion_proof(at_bound), read_inclusion_proof) == at_bound
        over = InclusionProof(leaf_index=0, audit_path=(step,) * 65, tree_size=1)
        with pytest.raises(WireError):
            read_inclusion_proof(Reader(encode_inclusion_proof(over)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=16), min_size=1, max_size=20), st.data())
def test_proof_wire_property(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    encoded = encode_inclusion_proof(tree.prove_inclusion(index))
    assert read_inclusion_proof(Reader(encoded)) == tree.prove_inclusion(index)
