"""Signing keys: deterministic derivation, fingerprints, verification."""

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from entmesh.hashtree import sha256
from entmesh.keys import Ed25519Scheme, keypair_from_seed, node_id_for_key


class TestDerivation:
    def test_same_seed_same_keys(self):
        a = keypair_from_seed("alpha")
        b = keypair_from_seed("alpha")
        assert a.verify_key == b.verify_key
        assert a.node_id == b.node_id

    def test_different_seeds_differ(self):
        assert keypair_from_seed("alpha").verify_key != keypair_from_seed("beta").verify_key

    def test_string_and_raw_seed_paths_agree(self):
        raw = sha256(b"gamma")
        assert keypair_from_seed("gamma").verify_key == keypair_from_seed(raw).verify_key

    def test_exact_32_byte_seed_used_directly(self):
        seed = bytes(range(32))
        direct = Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
        assert keypair_from_seed(seed).verify_key == direct


class TestIdentity:
    def test_node_id_is_key_fingerprint(self):
        kp = keypair_from_seed("node")
        assert kp.node_id == node_id_for_key(kp.verify_key)
        assert len(kp.node_id) == 32

    def test_distinct_keys_distinct_ids(self):
        ids = {keypair_from_seed(f"n{i}").node_id for i in range(50)}
        assert len(ids) == 50


class TestSignatures:
    def test_sign_verify(self):
        kp = keypair_from_seed("signer")
        scheme = Ed25519Scheme()
        message = b"attest this"
        sig = kp.sign(message)
        assert scheme.verify(kp.verify_key, message, sig)

    def test_wrong_message_rejected(self):
        kp = keypair_from_seed("signer")
        sig = kp.sign(b"original")
        assert not Ed25519Scheme().verify(kp.verify_key, b"altered", sig)

    def test_wrong_key_rejected(self):
        kp, other = keypair_from_seed("one"), keypair_from_seed("two")
        sig = kp.sign(b"msg")
        assert not Ed25519Scheme().verify(other.verify_key, b"msg", sig)

    def test_corrupt_signature_rejected(self):
        kp = keypair_from_seed("signer")
        sig = bytearray(kp.sign(b"msg"))
        sig[0] ^= 1
        assert not Ed25519Scheme().verify(kp.verify_key, b"msg", bytes(sig))

    def test_garbage_key_rejected_not_raised(self):
        garbage = sha256(b"not a curve point, probably")
        assert not Ed25519Scheme().verify(garbage, b"msg", b"\x00" * 64)
        assert not Ed25519Scheme().verify(b"tiny", b"msg", b"\x00" * 64)
        assert not Ed25519Scheme().verify(garbage, b"msg", b"\x01" * 64)

    def test_signatures_are_deterministic(self):
        kp = keypair_from_seed("signer")
        assert kp.sign(b"msg") == kp.sign(b"msg")
