"""Ed25519 signing keys and node identifiers.

Signatures are Ed25519 via ``cryptography``.  Key material derives
from an explicit 32-byte seed so whole simulations are reproducible; node
identifiers are the hash of the verification key, which makes the id
self-authenticating against any presented key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

from .hashtree import Digest, sha256

__all__ = ["Ed25519Scheme", "KeyPair", "NodeId", "keypair_from_seed", "node_id_for_key"]

# A node id is just a digest: the fingerprint of the verification key.
NodeId = Digest


def node_id_for_key(verify_key: bytes) -> NodeId:
    return sha256(verify_key)


class Ed25519Scheme:
    def verify(self, verify_key: bytes, message: bytes, signature: bytes) -> bool:
        if len(verify_key) != 32 or len(signature) != 64:
            return False
        try:
            Ed25519PublicKey.from_public_bytes(bytes(verify_key)).verify(bytes(signature), message)
            return True
        except (InvalidSignature, ValueError):
            return False


@dataclass
class KeyPair:
    verify_key: bytes
    _private: Ed25519PrivateKey = field(repr=False)

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message)

    @property
    def node_id(self) -> NodeId:
        return node_id_for_key(self.verify_key)


def keypair_from_seed(seed: "bytes | str") -> KeyPair:
    """Derive a keypair from an arbitrary seed string or byte string.

    A 32-byte seed is the Ed25519 private key; anything else is hashed down
    to one, so human-readable labels make valid deterministic seeds.
    """
    if isinstance(seed, str):
        seed = seed.encode("utf-8")
    if len(seed) != 32:
        seed = sha256(seed)
    private = Ed25519PrivateKey.from_private_bytes(seed)
    return KeyPair(verify_key=private.public_key().public_bytes_raw(), _private=private)
