"""Binary Merkle trees over byte-string leaves.

Leaf and interior hashes are domain-separated (``0x00`` / ``0x01`` prefixes)
so leaf bytes can never collide with an interior node preimage.  Trees whose
leaf count is not a power of two split at the largest power of two strictly
below the count; the unpaired remainder is promoted, never duplicated.  This
is the same shape discipline used by transparency logs, so inclusion proofs
stay stable when new leaves are appended on the right.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

__all__ = [
    "DIGEST_SIZE",
    "Digest",
    "EmptyTreeError",
    "IndexOutOfRangeError",
    "InclusionProof",
    "MerkleTree",
    "STEP_SIZE",
    "ZERO_DIGEST",
    "fold_root",
    "leaf_hash",
    "node_hash",
    "root",
    "sha256",
    "verify_inclusion",
]

DIGEST_SIZE = 32
STEP_SIZE = 1 + DIGEST_SIZE  # one audit-path step: side byte, then sibling
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# A digest is a plain 32-byte ``bytes``; the alias annotates and validates nothing.
Digest = bytes

ZERO_DIGEST = bytes(DIGEST_SIZE)


class EmptyTreeError(ValueError):
    """A tree needs at least one leaf."""


class IndexOutOfRangeError(IndexError):
    """Requested leaf index is not inside the tree."""


def leaf_hash(leaf: bytes) -> Digest:
    """Hash of a single leaf: H(0x00 || leaf)."""
    return sha256(_LEAF_PREFIX + leaf)


def node_hash(left: bytes, right: bytes) -> Digest:
    """Hash of an interior node: H(0x01 || left || right)."""
    return sha256(_NODE_PREFIX + left + right)


def root(leaves: Sequence[bytes]) -> Digest:
    return MerkleTree(leaves).root


@dataclass(frozen=True)
class InclusionProof:
    """Audit path for one leaf.

    ``audit_path`` is the path's wire bytes: ``STEP_SIZE``-byte steps, each
    a side byte (0 = sibling on the left, 1 = on the right) and then the
    32-byte sibling, ordered bottom-up, so the first sibling combines
    directly with the leaf hash.  ``tree_size`` pins the shape; verification
    rejects any path whose structure does not match (leaf_index, tree_size).
    """

    leaf_index: int
    audit_path: bytes
    tree_size: int


class MerkleTree:
    """An immutable tree over an ordered list of byte-string leaves.

    The tree keeps its hashes and ``leaf_bytes_total``, the leaves' summed
    length, not the leaves themselves.  Cost model: construction hashes
    every node once, level by level (O(n) hashes); each level is kept as one
    packed ``bytes`` blob of 32-byte digests, so a tree costs about 64 bytes
    per leaf.  ``prove_inclusion`` slices one sibling per level, O(log n).
    Pairing adjacent nodes and promoting an unpaired last node yields
    exactly the split-at-largest-power-of-two shape of the module docstring.
    """

    __slots__ = ("_levels", "_root", "leaf_bytes_total")

    def __init__(self, leaves: Iterable[bytes]):
        leaves = list(leaves)
        if not leaves:
            raise EmptyTreeError("cannot build a tree with no leaves")
        self.leaf_bytes_total = sum(map(len, leaves))
        level = b"".join([sha256(_LEAF_PREFIX + leaf) for leaf in leaves])
        levels = [level]
        pair = 2 * DIGEST_SIZE
        while len(level) > DIGEST_SIZE:
            paired = len(level) - len(level) % pair
            parents = [sha256(_NODE_PREFIX + level[i : i + pair]) for i in range(0, paired, pair)]
            level = b"".join(parents) + level[paired:]
            levels.append(level)
        self._levels: tuple[bytes, ...] = tuple(levels)
        self._root = level

    @property
    def size(self) -> int:
        return len(self._levels[0]) // DIGEST_SIZE

    @property
    def root(self) -> Digest:
        return self._root

    def prove_inclusion(self, index: int) -> InclusionProof:
        size = self.size
        if not 0 <= index < size:
            raise IndexOutOfRangeError(f"leaf index {index} not in tree of size {size}")
        steps: list[bytes] = []
        i = index
        for level in self._levels[:-1]:
            start = (i ^ 1) * DIGEST_SIZE
            if start < len(level):
                steps.append(b"\x00" if i & 1 else b"\x01")  # sibling on the left / right
                steps.append(level[start : start + DIGEST_SIZE])
            i >>= 1
        return InclusionProof(leaf_index=index, audit_path=b"".join(steps), tree_size=size)


def fold_root(leaf: bytes, proof: InclusionProof) -> Optional[Digest]:
    """Fold a leaf up an audit path; return the implied root.

    Returns None when the proof is structurally invalid for its claimed
    (leaf_index, tree_size): every serialized field must be load-bearing, so
    a path whose length or side sequence disagrees with the claimed position
    is rejected outright rather than folded anyway.

    One bottom-up pass over the step bytes (RFC 9162 section 2.1.3.2).
    Below level ``inner``, where the leaf's and the last leaf's positions
    still differ, bit ``level`` of the index says which side the sibling is
    on.  From there up the leaf lies on the tree's right border: every
    remaining sibling is a left one, one per set bit of ``index >> inner``,
    and levels where the border node has no sibling add no step.
    """
    index, size = proof.leaf_index, proof.tree_size
    if not isinstance(index, int) or not isinstance(size, int):
        return None
    if size < 1 or not 0 <= index < size:
        return None
    inner = (index ^ (size - 1)).bit_length()
    path = proof.audit_path
    if len(path) != (inner + (index >> inner).bit_count()) * STEP_SIZE:
        return None
    current = hashlib.sha256(_LEAF_PREFIX + leaf).digest()
    for level, at in enumerate(range(0, len(path), STEP_SIZE)):
        sibling = path[at + 1 : at + STEP_SIZE]
        if level >= inner or index >> level & 1:
            if path[at] != 0:
                return None
            current = hashlib.sha256(_NODE_PREFIX + sibling + current).digest()
        else:
            if path[at] != 1:
                return None
            current = hashlib.sha256(_NODE_PREFIX + current + sibling).digest()
    return current


def verify_inclusion(leaf: bytes, proof: InclusionProof, expected_root: bytes) -> bool:
    """True iff the proof places ``leaf`` in a tree with ``expected_root``.

    Never raises on malformed input: bad proofs simply verify false.
    """
    try:
        implied = fold_root(leaf, proof)
    except Exception:
        return False
    return implied is not None and implied == expected_root
