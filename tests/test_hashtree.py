"""Tree-layer checks against an independent reference implementation.

The reference below recomputes roots and audit paths from scratch with
hashlib only, so the two implementations can only agree if both follow
the same split rule and domain separation.
"""

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmesh.hashtree import (
    Digest,
    EmptyTreeError,
    IndexOutOfRangeError,
    InclusionProof,
    MerkleTree,
    ZERO_DIGEST,
    fold_root,
    fold_sizes,
    leaf_hash,
    node_hash,
    path_steps,
    root,
    verify_inclusion,
)

from reference import write

# Frozen expected values, computed once with the standalone reference
# implementation in this file before the library existed.
EMPTY_LEAF_HEX = "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"
ABC_ROOT_HEX = "36642e73c2540ab121e3a6bf9545b0a24982cd830eb13d3cd19de3ce6c021ec1"


def ref_leaf(leaf: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + leaf).digest()


def ref_root(leaves) -> bytes:
    n = len(leaves)
    if n == 0:
        raise ValueError("empty")
    if n == 1:
        return ref_leaf(leaves[0])
    k = 1
    while k * 2 < n:
        k *= 2
    return hashlib.sha256(b"\x01" + ref_root(leaves[:k]) + ref_root(leaves[k:])).digest()


def ref_path(leaves, index):
    """(side, sibling) pairs bottom-up; side names where the sibling sits."""
    n = len(leaves)
    if n == 1:
        return []
    k = 1
    while k * 2 < n:
        k *= 2
    if index < k:
        return ref_path(leaves[:k], index) + [("right", ref_root(leaves[k:]))]
    return ref_path(leaves[k:], index - k) + [("left", ref_root(leaves[:k]))]


def ref_path_bytes(leaves, index) -> bytes:
    """``ref_path``'s steps as a receipt writes them: the reference's Step rows."""
    return b"".join(write("Step", (side == "right", digest)) for side, digest in ref_path(leaves, index))


def ref_siblings(leaves, index) -> tuple:
    """``ref_path``'s siblings alone: what a path holds."""
    return tuple(digest for _, digest in ref_path(leaves, index))


def hashes(leaves) -> list:
    return [ref_leaf(leaf) for leaf in leaves]


def leaf_set(n):
    return [bytes([i]) * (i % 5 + 1) for i in range(n)]


class TestGoldenValues:
    def test_empty_leaf_hash(self):
        assert leaf_hash(b"").hex() == EMPTY_LEAF_HEX
        assert ref_leaf(b"").hex() == EMPTY_LEAF_HEX

    def test_three_leaf_root(self):
        leaves = [b"a", b"b", b"c"]
        assert root(leaves).hex() == ABC_ROOT_HEX
        assert ref_root(leaves).hex() == ABC_ROOT_HEX

    def test_single_leaf_root_is_leaf_hash(self):
        assert root([b"x"]) == leaf_hash(b"x")

    def test_leaf_and_interior_prefixes_differ(self):
        # Domain separation: a leaf holding the concatenation of two
        # digests must not hash like the interior node above them.
        left, right = leaf_hash(b"l"), leaf_hash(b"r")
        assert leaf_hash(left + right) != node_hash(left, right)


class TestRootAgainstReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33, 100])
    def test_matches_reference(self, n):
        leaves = leaf_set(n)
        assert root(leaves) == ref_root(leaves)
        assert MerkleTree(leaves).root == ref_root(leaves)

    def test_empty_rejected(self):
        with pytest.raises(EmptyTreeError):
            root([])
        with pytest.raises(EmptyTreeError):
            MerkleTree([])

    def test_order_matters(self):
        assert root([b"a", b"b"]) != root([b"b", b"a"])

    def test_split_is_not_balanced_split(self):
        # Five leaves must split 4+1, not 3+2.
        leaves = leaf_set(5)
        lopsided = hashlib.sha256(
            b"\x01" + ref_root(leaves[:4]) + ref_leaf(leaves[4])
        ).digest()
        assert root(leaves) == lopsided


class TestInclusionProofs:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 31])
    def test_every_index_verifies(self, n):
        leaves = leaf_set(n)
        tree = MerkleTree(leaves)
        for i in range(n):
            proof = tree.prove_inclusion(i)
            assert proof.leaf_index == i
            assert verify_inclusion([leaf_hash(leaves[i])], proof, n, tree.root)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 11])
    def test_paths_match_reference(self, n):
        leaves = leaf_set(n)
        tree = MerkleTree(leaves)
        for i in range(n):
            proof = tree.prove_inclusion(i)
            expected = ref_path(leaves, i)
            assert proof.siblings == tuple(digest for _, digest in expected)
            # The sides the receipt form writes are the ones the split rule gives.
            steps = b"".join(path_steps(proof, n))
            assert [steps[33 * k] for k in range(len(expected))] == [int(side == "right") for side, _ in expected]

    def test_path_lengths_follow_tree_shape(self):
        # Depth varies per leaf in a ragged tree; it only equals
        # ceil(log2(n)) for the deepest leaves.
        shapes = {
            3: [2, 2, 1],
            5: [3, 3, 3, 3, 1],
            11: [4, 4, 4, 4, 4, 4, 4, 4, 3, 3, 2],
        }
        for n, lengths in shapes.items():
            tree = MerkleTree(leaf_set(n))
            got = [len(tree.prove_inclusion(i).siblings) for i in range(n)]
            assert got == lengths
            assert max(lengths) == math.ceil(math.log2(n))

    def test_index_out_of_range(self):
        tree = MerkleTree(leaf_set(3))
        for bad in (-1, 3, 100):
            with pytest.raises(IndexOutOfRangeError):
                tree.prove_inclusion(bad)

    def test_wrong_leaf_rejected(self):
        tree = MerkleTree(leaf_set(7))
        proof = tree.prove_inclusion(2)
        assert not verify_inclusion([leaf_hash(b"not the leaf")], proof, 7, tree.root)

    def test_wrong_root_rejected(self):
        leaves = leaf_set(7)
        tree = MerkleTree(leaves)
        proof = tree.prove_inclusion(2)
        other = Digest(hashlib.sha256(b"other").digest())
        assert not verify_inclusion([leaf_hash(leaves[2])], proof, 7, other)

    def test_proof_does_not_transfer_between_indices(self):
        leaves = leaf_set(8)
        tree = MerkleTree(leaves)
        proof = tree.prove_inclusion(3)
        assert not verify_inclusion([leaf_hash(leaves[4])], proof, 8, tree.root)

    def test_flipped_side_rejected(self):
        # A path holds no sides: the fold takes them from the index.  The
        # same siblings claimed at the index whose lowest side is flipped
        # put the first sibling on the other side, and fold to another root.
        leaves = leaf_set(6)
        tree = MerkleTree(leaves)
        proof = tree.prove_inclusion(2)
        flipped = InclusionProof(leaf_index=3, siblings=proof.siblings)
        assert fold_root([leaf_hash(leaves[2])], flipped, 6) not in (None, tree.root)
        assert fold_root([leaf_hash(leaves[2])], proof, 6) == tree.root

    def test_sides_must_match_index_and_size(self):
        # The sibling count is implied by (index, size); a proof claiming a
        # geometry of another count folds to nothing rather than a wrong root.
        leaves = leaf_set(5)
        tree = MerkleTree(leaves)
        proof = tree.prove_inclusion(0)
        for index, size in ((4, 5), (0, 2), (0, 16)):
            lying = InclusionProof(leaf_index=index, siblings=proof.siblings)
            assert fold_root([leaf_hash(leaves[0])], lying, size) is None

    def test_truncated_path_rejected(self):
        leaves = leaf_set(9)
        tree = MerkleTree(leaves)
        proof = tree.prove_inclusion(4)
        short = InclusionProof(leaf_index=proof.leaf_index, siblings=proof.siblings[:-1])
        assert fold_root([leaf_hash(leaves[4])], short, 9) is None

    def test_single_leaf_proof_is_empty_path(self):
        tree = MerkleTree([b"only"])
        proof = tree.prove_inclusion(0)
        assert proof.siblings == ()
        assert verify_inclusion([leaf_hash(b"only")], proof, 1, tree.root)


class TestDigestType:
    def test_zero_digest(self):
        assert len(ZERO_DIGEST) == 32
        assert set(ZERO_DIGEST) == {0}

    def test_is_bytes(self):
        d = leaf_hash(b"q")
        assert isinstance(d, bytes)
        assert bytes(d) == d


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=64), min_size=1, max_size=40))
def test_root_property_matches_reference(leaves):
    assert root(leaves) == ref_root(leaves)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.binary(max_size=32), min_size=1, max_size=25),
    st.data(),
)
def test_inclusion_property(leaves, data):
    tree = MerkleTree(leaves)
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    proof = tree.prove_inclusion(index)
    assert verify_inclusion([leaf_hash(leaves[index])], proof, len(leaves), tree.root)
    # Any other leaf value at the same position must fail.
    altered = leaves[index] + b"\x00"
    assert not verify_inclusion([leaf_hash(altered)], proof, len(leaves), tree.root)


def test_no_root_collisions_across_random_inputs():
    # Distinct single-leaf inputs and distinct pairs must give distinct
    # roots; a collision would break every commitment downstream.
    rng = random.Random(20260819)
    inputs = {rng.randbytes(rng.randint(0, 24)) for _ in range(100_000)}
    digests = {leaf_hash(blob) for blob in inputs}
    assert len(digests) == len(inputs)
    # Spot check structured two-leaf trees as well.
    pairs = {(rng.randbytes(8), rng.randbytes(8)) for _ in range(5_000)}
    roots = {root(list(pair)) for pair in pairs}
    assert len(roots) == len(pairs)


# Both sides of every power-of-two boundary up to 256, where the split
# rule changes shape.
BOUNDARY_SIZES = sorted({n for k in range(9) for n in (2**k - 1, 2**k, 2**k + 1) if n >= 1})


def _with_boundary_examples(test):
    for n in BOUNDARY_SIZES:
        test = example([i.to_bytes(2, "big") for i in range(n)])(test)
    return test


@_with_boundary_examples
@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.sampled_from(BOUNDARY_SIZES), st.integers(min_value=1, max_value=300)).flatmap(
        lambda n: st.lists(st.binary(max_size=16), min_size=n, max_size=n)
    )
)
def test_tree_matches_recursive_reference(leaves):
    tree = MerkleTree(leaves)
    assert tree.root == root(leaves) == ref_root(leaves)
    for i in range(len(leaves)):
        proof = tree.prove_inclusion(i)
        assert proof.siblings == ref_siblings(leaves, i)
        assert all(type(sibling) is bytes for sibling in proof.siblings)
        assert b"".join(path_steps(proof, len(leaves))) == ref_path_bytes(leaves, i)
        assert verify_inclusion([leaf_hash(leaves[i])], proof, len(leaves), tree.root)


def ref_path_sides(index: int, size: int) -> list:
    # The side bytes (0 left, 1 right), worked out top-down from
    # (index, size) by the split rule and reversed to bottom-up order.
    sides = []
    lo, hi = 0, size
    while hi - lo > 1:
        k = 1 << ((hi - lo - 1).bit_length() - 1)
        if index < lo + k:
            sides.append(1)
            hi = lo + k
        else:
            sides.append(0)
            lo = lo + k
    sides.reverse()
    return sides


def ref_fold_root(leaf: bytes, proof: InclusionProof, size: int):
    """The fold with the sides worked out first, top-down: None unless the
    path holds exactly as many siblings as there are sides."""
    if not isinstance(proof.leaf_index, int) or not isinstance(size, int):
        return None
    if size < 1 or not 0 <= proof.leaf_index < size:
        return None
    expected = ref_path_sides(proof.leaf_index, size)
    if len(proof.siblings) != len(expected):
        return None
    current = ref_leaf(leaf)
    for side, sibling in zip(expected, proof.siblings):
        pair = sibling + current if side == 0 else current + sibling
        current = hashlib.sha256(b"\x01" + pair).digest()
    return current


def _variants(proof: InclusionProof, size: int):
    """(proof, size): the proof itself, then copies with one sibling cut
    short, two siblings swapped, the size, the index or the sibling count
    changed."""
    index, siblings = proof
    yield proof, size
    for k, sibling in enumerate(siblings):
        yield InclusionProof(index, siblings[:k] + (sibling[:31],) + siblings[k + 1 :]), size
        if k:
            yield InclusionProof(index, siblings[: k - 1] + (sibling, siblings[k - 1]) + siblings[k + 1 :]), size
    for other in (0, size - 1, size + 1, 2 * size, size + 7):
        yield proof, other
    for other in (-1, index - 1, index + 1, size - 1 - index, size):
        yield InclusionProof(other, siblings), size
    yield InclusionProof(index, siblings[:-1]), size
    yield InclusionProof(index, siblings[1:]), size
    yield InclusionProof(index, siblings + (ZERO_DIGEST,)), size
    yield InclusionProof(index, (ZERO_DIGEST,) + siblings), size


def test_fold_matches_reference_for_every_position():
    folded = rejected = 0
    for n in range(1, 71):
        leaves = leaf_set(n)
        tree = MerkleTree(leaves)
        for i in range(n):
            for proof, size in _variants(tree.prove_inclusion(i), n):
                for leaf in (leaves[i], leaves[(i + 1) % n]):
                    want = ref_fold_root(leaf, proof, size)
                    got = fold_root([leaf_hash(leaf)], proof, size)
                    assert got == want, (n, i, proof.leaf_index, size, len(proof.siblings))
                    assert want is None or type(got) is Digest
                    folded += want is not None
                    rejected += want is None
    # Both outcomes must be well represented, or the comparison shows little.
    assert folded > 50_000 and rejected > 40_000


# Range proofs: one proof for a run of consecutive leaves [a, b).


def ref_range_siblings(a: int, b: int, size: int) -> list:
    """The subtrees a proof of the run [a, b) must supply, worked out
    top-down by the split rule: each child the run misses while its parent
    meets the run, as (level, side, lo, hi).  Both children of a split of
    ``lo .. hi`` pair at level log2(k), k the left child's size, so that is
    the level the sibling's step sits at; the steps run bottom-up, a level's
    left sibling before its right one."""
    found = []

    def walk(lo, hi):
        if hi - lo == 1:
            return
        k = 1 << ((hi - lo - 1).bit_length() - 1)
        for side, (c_lo, c_hi) in ((0, (lo, lo + k)), (1, (lo + k, hi))):
            if c_hi <= a or c_lo >= b:
                found.append((k.bit_length() - 1, side, c_lo, c_hi))
            else:
                walk(c_lo, c_hi)

    walk(0, size)
    return sorted(found)


def ref_subroots(leaves) -> dict:
    """Every subtree root of the split rule's tree, by (lo, hi)."""
    roots = {}

    def walk(lo, hi):
        if hi - lo == 1:
            roots[lo, hi] = ref_leaf(leaves[lo])
        else:
            k = 1 << ((hi - lo - 1).bit_length() - 1)
            roots[lo, hi] = hashlib.sha256(b"\x01" + walk(lo, lo + k) + walk(lo + k, hi)).digest()
        return roots[lo, hi]

    walk(0, len(leaves))
    return roots


def ref_range_path(subroots: dict, a: int, b: int, size: int) -> tuple:
    return tuple(subroots[lo, hi] for _, _, lo, hi in ref_range_siblings(a, b, size))


def ref_fold_range(run, proof: InclusionProof, size: int):
    """Fold ``run`` as the leaves from ``proof.leaf_index`` on, top-down:
    None unless the path holds as many siblings as the claimed
    (leaf_index, len(run), size) imply."""
    a, path = proof
    b = a + len(run)
    if not 0 <= a < b <= size:
        return None
    siblings = ref_range_siblings(a, b, size)
    if len(path) != len(siblings):
        return None
    given = {(lo, hi): path[k] for k, (_, _, lo, hi) in enumerate(siblings)}

    def node(lo, hi):
        if (lo, hi) in given:
            return given[lo, hi]
        if a <= lo and hi <= b:
            return ref_root(run[lo - a : hi - a])
        k = 1 << ((hi - lo - 1).bit_length() - 1)
        return hashlib.sha256(b"\x01" + node(lo, lo + k) + node(lo + k, hi)).digest()

    return node(0, size)


def _wrong_claims(leaves, proof: InclusionProof, b: int, size: int):
    """(kind, run, proof, size) with one part of an honest claim for [leaf_index, b) changed."""
    a, path = proof
    run = leaves[a:b]
    yield "steps", run, InclusionProof(a, path + (ZERO_DIGEST,)), size
    yield "steps", run, InclusionProof(a, (ZERO_DIGEST,) + path), size
    if path:
        yield "steps", run, InclusionProof(a, path[1:]), size
        yield "steps", run, InclusionProof(a, path[:-1]), size
    for k in range(1, len(path)):
        yield "order", run, InclusionProof(a, path[: k - 1] + (path[k], path[k - 1]) + path[k + 1 :]), size
    yield "shift", run, InclusionProof(a + 1, path), size
    if a:
        yield "shift", run, InclusionProof(a - 1, path), size
    if len(run) > 1:
        yield "run", run[:-1], proof, size
    yield "run", run + [b"x"], proof, size
    yield "size", run, proof, size + 1
    yield "size", run, proof, size - 1


def _one_leaf_claims(leaf: list, proof: InclusionProof, size: int):
    """(run, proof, whether it proves the leaf) for the honest one-leaf claim
    and malformed ones: a sibling too many or too few, the index at or past
    the size or negative, and no leaf at all."""
    i, path = proof
    yield leaf, proof, True
    yield leaf, InclusionProof(i, path + (ZERO_DIGEST,)), False
    if path:
        yield leaf, InclusionProof(i, path[:-1]), False
    for index in (size, size + 1, -1):
        yield leaf, InclusionProof(index, path), False
    yield (), proof, False


def test_range_fold_matches_whole_tree_reference():
    for n in range(1, 71):
        leaves = leaf_set(n)
        tree = MerkleTree(leaves)
        subroots = ref_subroots(leaves)
        assert tree.root == subroots[0, n]
        for a in range(n):
            for b in range(a + 1, n + 1):
                proof = tree.prove_range(a, b)
                assert proof.leaf_index == a
                assert proof.siblings == ref_range_path(subroots, a, b, n), (n, a, b)
                assert fold_root(hashes(leaves[a:b]), proof, n) == tree.root
            # One leaf, which the fold takes first, against the reference,
            # and malformed claims, which verify false without raising.
            proof = tree.prove_inclusion(a)
            for run, claim, proves in _one_leaf_claims(leaves[a : a + 1], proof, n):
                assert fold_root(hashes(run), claim, n) == ref_fold_range(run, claim, n), (n, a, claim.leaf_index)
                assert verify_inclusion(hashes(run), claim, n, tree.root) is proves, (n, a, claim.leaf_index)
            for index in (float(a), str(a), None):
                assert verify_inclusion(hashes(leaves[a : a + 1]), InclusionProof(index, proof.siblings), n, tree.root) is False


def test_fold_sizes_pick_one_size_per_range_of_equal_folds():
    # A run's path, whole or one sibling short, folds at every size as it
    # does at the largest size ``fold_sizes`` picks not above it.
    for n in range(1, 20):
        leaves = leaf_set(n)
        tree = MerkleTree(leaves)
        for a in range(n):
            for b in range(a + 1, min(n, a + 5) + 1):
                proof, run = tree.prove_range(a, b), hashes(leaves[a:b])
                for lo, hi in ((1, 40), (n // 2 + 1, 2 * n)):
                    sizes = fold_sizes(a, b - a, lo, hi)
                    assert lo in sizes and sizes <= set(range(lo, hi + 1))
                    assert len(sizes) <= 2 * hi.bit_length() + 3
                    for path in (proof, proof._replace(siblings=proof.siblings[:-1])):
                        for size in range(lo, hi + 1):
                            picked = max(s for s in sizes if s <= size)
                            assert fold_root(run, path, size) == fold_root(run, path, picked), (n, a, b, size)
    assert fold_sizes(-1, 2, 1, 8) == {1}  # no size folds a run before leaf 0


def test_wrong_range_claims_do_not_fold():
    none_by_kind, claims_by_kind = {}, {}
    for n in range(1, 25):
        leaves = leaf_set(n)
        tree = MerkleTree(leaves)
        for a in range(n):
            for b in range(a + 1, n + 1):
                for kind, run, wrong, size in _wrong_claims(leaves, tree.prove_range(a, b), b, n):
                    got = fold_root(hashes(run), wrong, size)
                    assert got == ref_fold_range(run, wrong, size), (kind, n, a, b)
                    # The root does not pin the tree size; a commitment signs it.
                    assert got != tree.root or kind == "size", (kind, n, a, b)
                    claims_by_kind[kind] = claims_by_kind.get(kind, 0) + 1
                    none_by_kind[kind] = none_by_kind.get(kind, 0) + (got is None)
    # A wrong sibling count never folds.  Swapped siblings keep the count and
    # fold to another root.  A shifted run, a run one leaf short or long, or
    # a wrong tree size folds to None wherever it implies another sibling
    # count.  Where the count is the same (a 4-leaf tree's runs [0, 2) and
    # [0, 3) both take one right sibling), a wrong run folds to a root other
    # than the tree's, and a wrong size is refused by ``Commitment.proves``,
    # which folds in a tree of the signed leaf count.
    assert none_by_kind["steps"] == claims_by_kind["steps"]
    assert none_by_kind["order"] == 0 < claims_by_kind["order"]
    for kind in ("shift", "run", "size"):
        assert 0 < none_by_kind[kind] < claims_by_kind[kind], kind


def test_one_leaf_range_is_the_inclusion_proof():
    for n in range(1, 71):
        tree = MerkleTree(leaf_set(n))
        for i in range(n):
            assert tree.prove_range(i, i + 1) == tree.prove_inclusion(i)
            assert b"".join(path_steps(tree.prove_inclusion(i), n)) == ref_path_bytes(leaf_set(n), i)


def test_range_out_of_tree_refused():
    tree = MerkleTree(leaf_set(5))
    for a, b in ((-1, 2), (2, 2), (3, 2), (0, 6), (5, 6)):
        with pytest.raises(IndexOutOfRangeError):
            tree.prove_range(a, b)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=300).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(1, n))))
def test_range_property(claim):
    n, a, length = claim
    b = min(n, a + length)
    leaves = [i.to_bytes(2, "big") for i in range(n)]
    tree = MerkleTree(leaves)
    proof = tree.prove_range(a, b)
    assert proof.siblings == ref_range_path(ref_subroots(leaves), a, b, n)
    assert verify_inclusion(hashes(leaves[a:b]), proof, n, tree.root)
    altered = leaves[a:b]
    altered[-1] += b"\x00"
    assert not verify_inclusion(hashes(altered), proof, n, tree.root)
