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
from typing import Iterable, NamedTuple, Optional, Sequence

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
    "fold_sizes",
    "leaf_hash",
    "node_hash",
    "path_steps",
    "root",
    "sha256",
    "verify_inclusion",
]

DIGEST_SIZE = 32
STEP_SIZE = 1 + DIGEST_SIZE  # one step of a path as a receipt writes it: side byte, then sibling
_LEFT, _RIGHT = b"\x00", b"\x01"  # the side bytes: sibling on the left, on the right
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


class InclusionProof(NamedTuple):
    """Audit path for a run of consecutive leaves, one leaf or more.

    ``leaf_index`` is the run's first leaf; ``siblings`` are the 32-byte
    subtree roots that bound the run, bottom-up.  Nothing else is held: the
    verifier supplies the run's leaves, and the tree size comes from the
    commitment the path is checked against.  Each sibling's side, and how
    many siblings there are, follow from (leaf_index, run length, tree size),
    so the fold derives them and rejects a path with any other sibling count
    (RFC 9162 section 2.1.3 keeps a path the same way).  A tuple, since a
    proof builds and reads one per receipt and round.
    """

    leaf_index: int
    siblings: tuple[Digest, ...]


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
        siblings: list[bytes] = []
        lo, hi = start, end
        for level in levels[:-1]:
            if lo & 1:  # the first node is a right child: its sibling is on the left
                siblings.append(level[(lo - 1) * DIGEST_SIZE : lo * DIGEST_SIZE])
            if hi & 1 and hi * DIGEST_SIZE < len(level):  # the last node is a left child with a pair
                siblings.append(level[hi * DIGEST_SIZE : (hi + 1) * DIGEST_SIZE])
            lo, hi = lo >> 1, (hi + 1) >> 1
        return InclusionProof(start, tuple(siblings))

    def prove_inclusion(self, index: int) -> InclusionProof:
        return self.prove_range(index, index + 1)


def fold_root(leaf_hashes: Sequence[bytes], proof: InclusionProof, tree_size: int) -> Optional[Digest]:
    """Fold the leaf hashes of a run of consecutive leaves up an audit path
    in a tree of ``tree_size`` leaves; return the implied root.

    Returns None when the path's sibling count disagrees with the run's
    (leaf_index, length) and ``tree_size``.  While the run spans several nodes
    of a level, the level takes the siblings ``prove_range`` gives; an
    unpaired last node is promoted.  Then one pass (RFC 9162 section
    2.1.3.2): below level ``inner``, where the node's and the level's last
    node's positions differ, bit ``level`` of the index gives the sibling's
    side; above it the node is on the right border, one left sibling per set
    bit of ``index >> inner``.
    """
    index, siblings, size = proof.leaf_index, proof.siblings, tree_size
    if not isinstance(index, int) or not isinstance(size, int):
        return None
    end = index + len(leaf_hashes)
    if not 0 <= index < end <= size:
        return None
    at = 0
    if end - index == 1:
        current = leaf_hashes[0]
    else:
        nodes, count = list(leaf_hashes), len(siblings)
        while end - index > 1:
            if index & 1:
                if at == count:
                    return None
                nodes.insert(0, siblings[at])
                at += 1
            if end & 1 and end < size:
                if at == count:
                    return None
                nodes.append(siblings[at])
                at += 1
            pairs = range(0, len(nodes) - 1, 2)
            nodes = [_sha256(_NODE_PREFIX + nodes[i] + nodes[i + 1]).digest() for i in pairs] + nodes[len(nodes) & ~1 :]
            index, end, size = index >> 1, (end + 1) >> 1, (size + 1) >> 1
        current = nodes[0]
        siblings = siblings[at:]
    inner = (index ^ (size - 1)).bit_length()
    if len(siblings) != inner + (index >> inner).bit_count():
        return None
    for level, sibling in enumerate(siblings):
        if level >= inner or index >> level & 1:
            current = _sha256(_NODE_PREFIX + sibling + current).digest()
        else:
            current = _sha256(_NODE_PREFIX + current + sibling).digest()
    return current


def fold_sizes(index: int, run: int, lo: int, hi: int) -> set[int]:
    """``lo`` and each size in (lo, hi] one past a size where ``fold_root``,
    folding a path for the ``run`` leaves from ``index``, changes course (the
    run fits, a last node gets a pair, ``inner`` grows): a path folds at any
    size in [lo, hi] as at the largest of these not above it."""
    if not isinstance(index, int) or index < 0:
        return {lo}  # fold_root folds such a path at no size
    end = index + run
    cuts, level = [end - 1], 0
    while end - index > 1:
        cuts.append(end << level)
        index, end, level = index >> 1, (end + 1) >> 1, level + 1
    cuts += [((index >> j) + 1) << j << level for j in range(hi.bit_length() + 1)]
    return {lo} | {cut + 1 for cut in cuts if lo <= cut < hi}


def verify_inclusion(leaf_hashes: Sequence[bytes], proof: InclusionProof, tree_size: int, expected_root: bytes) -> bool:
    """True iff the proof places the run of leaves with ``leaf_hashes`` in a
    tree of ``tree_size`` leaves with ``expected_root``.

    Never raises on malformed input: bad proofs simply verify false.
    """
    try:
        implied = fold_root(leaf_hashes, proof, tree_size)
    except Exception:
        return False
    return implied is not None and implied == expected_root


def path_steps(proof: InclusionProof, tree_size: int) -> list[bytes]:
    """A one-leaf path's steps in a tree of ``tree_size`` leaves, bottom-up,
    as parts for one join: each step a side byte (0 = sibling on the left,
    1 = on the right) and then the sibling, ``STEP_SIZE`` bytes.  The sides
    are derived from (leaf_index, tree_size) as ``fold_root`` derives them.
    A receipt writes its paths this way."""
    index = proof.leaf_index
    inner = (index ^ (tree_size - 1)).bit_length()
    steps = []
    for level, sibling in enumerate(proof.siblings):
        steps += (_LEFT if level >= inner or index >> level & 1 else _RIGHT, sibling)
    return steps
