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
_sha256 = hashlib.sha256


def sha256(data: bytes) -> bytes:
    return _sha256(data).digest()


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
    """Audit path for a run of consecutive leaves, one leaf or more.

    ``leaf_index`` is the run's first leaf; the verifier supplies the run's
    leaves, so their count is not written.  ``audit_path`` is the path's
    wire bytes: ``STEP_SIZE``-byte steps, each a side byte (0 = sibling on
    the left, 1 = on the right) and then the 32-byte sibling, ordered
    bottom-up.  ``tree_size`` pins the shape; verification rejects any path
    whose structure does not match (leaf_index, run length, tree_size).
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
    per leaf.  ``prove_range`` slices at most two siblings per level, O(log n).
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

    def prove_range(self, start: int, end: int) -> InclusionProof:
        """Proof for the run of leaves [start, end): the siblings that bound it, bottom-up."""
        levels = self._levels
        size = len(levels[0]) // DIGEST_SIZE
        if not 0 <= start < end <= size:
            raise IndexOutOfRangeError(f"leaf run [{start}, {end}) not in tree of size {size}")
        steps: list[bytes] = []
        lo, hi = start, end
        for level in levels[:-1]:
            if lo & 1:  # the first node is a right child: its sibling is on the left
                steps.append(b"\x00")
                steps.append(level[(lo - 1) * DIGEST_SIZE : lo * DIGEST_SIZE])
            if hi & 1 and hi * DIGEST_SIZE < len(level):  # the last node is a left child with a pair
                steps.append(b"\x01")
                steps.append(level[hi * DIGEST_SIZE : (hi + 1) * DIGEST_SIZE])
            lo, hi = lo >> 1, (hi + 1) >> 1
        return InclusionProof(start, b"".join(steps), size)

    def prove_inclusion(self, index: int) -> InclusionProof:
        return self.prove_range(index, index + 1)


def fold_root(leaves: Sequence[bytes], proof: InclusionProof) -> Optional[Digest]:
    """Fold a run of consecutive leaves up an audit path; return the implied root.

    Returns None when the path's length or side sequence disagrees with the
    claimed (leaf_index, tree_size) and the run's length: every serialized
    field must be load-bearing.  While the run spans several nodes of a
    level, the level takes the steps ``prove_range`` writes; an unpaired
    last node is promoted.  Then one pass (RFC 9162 section 2.1.3.2): below
    level ``inner``, where the node's and the level's last node's positions
    differ, bit ``level`` of the index gives the sibling's side; above it
    the node is on the right border, one left sibling per set bit of
    ``index >> inner``.
    """
    index, size = proof.leaf_index, proof.tree_size
    if not isinstance(index, int) or not isinstance(size, int):
        return None
    end = index + len(leaves)
    if not 0 <= index < end <= size:
        return None
    path = proof.audit_path
    if end - index == 1:
        at, current = 0, _sha256(_LEAF_PREFIX + leaves[0]).digest()
    else:
        at, nodes = 0, [_sha256(_LEAF_PREFIX + leaf).digest() for leaf in leaves]
        while end - index > 1:
            if index & 1:
                if path[at : at + 1] != b"\x00":
                    return None
                nodes.insert(0, path[at + 1 : at + STEP_SIZE])
                at += STEP_SIZE
            if end & 1 and end < size:
                if path[at : at + 1] != b"\x01":
                    return None
                nodes.append(path[at + 1 : at + STEP_SIZE])
                at += STEP_SIZE
            pairs = range(0, len(nodes) - 1, 2)
            nodes = [_sha256(_NODE_PREFIX + nodes[i] + nodes[i + 1]).digest() for i in pairs] + nodes[len(nodes) & ~1 :]
            index, end, size = index >> 1, (end + 1) >> 1, (size + 1) >> 1
        current = nodes[0]
    inner = (index ^ (size - 1)).bit_length()
    if len(path) - at != (inner + (index >> inner).bit_count()) * STEP_SIZE:
        return None
    for level, at in enumerate(range(at, len(path), STEP_SIZE)):
        if level >= inner or index >> level & 1:
            if path[at] != 0:
                return None
            current = _sha256(_NODE_PREFIX + path[at + 1 : at + STEP_SIZE] + current).digest()
        else:
            if path[at] != 1:
                return None
            current = _sha256(_NODE_PREFIX + current + path[at + 1 : at + STEP_SIZE]).digest()
    return current


def verify_inclusion(leaves: Sequence[bytes], proof: InclusionProof, expected_root: bytes) -> bool:
    """True iff the proof places the run ``leaves`` in a tree with ``expected_root``.

    Never raises on malformed input: bad proofs simply verify false.
    """
    try:
        implied = fold_root(leaves, proof)
    except Exception:
        return False
    return implied is not None and implied == expected_root
