"""Every digest the package hands out is a plain 32-byte ``bytes``.

``Digest`` and ``NodeId`` are annotation aliases of ``bytes``: no
constructor wraps hash output or decoded slices, so each value checked here
must have exactly type ``bytes``.
"""

import dataclasses

from entmesh.entangle import WindowRound, build_hub_proof, decode_proof, encode_proof
from entmesh.hashtree import DIGEST_SIZE, InclusionProof, MerkleTree, fold_root, leaf_hash, node_hash
from entmesh.identity import Credential, CredentialMode, RecoveryPolicy
from entmesh.keys import keypair_from_seed, node_id_for_key
from entmesh.node import Node, commitment_digest
from entmesh.wire import Reader

from reference import write

# Fields of proof records that hold one digest, or a tuple of them.
_DIGEST_FIELDS = {"holder_id", "issuer_id", "node_id", "root", "holder_root", "prev_digest", "manifest"}


def assert_plain(values):
    values = list(values)
    assert values
    for value in values:
        assert type(value) is bytes and len(value) == DIGEST_SIZE, repr(value)


def siblings(path):
    """The siblings of an audit path, a plain tuple."""
    assert type(path) is InclusionProof and type(path.siblings) is tuple, repr(path)
    return list(path.siblings)


def digests_in(obj):
    """Ids, roots and audit-path siblings anywhere inside a proof record."""
    if isinstance(obj, InclusionProof):
        yield from siblings(obj)
    elif isinstance(obj, WindowRound):  # its prev digests, which the window's first round alone writes
        yield from obj.prev_digests
        yield from digests_in(obj[:3])
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if field.name not in _DIGEST_FIELDS:
                yield from digests_in(value)
            elif isinstance(value, tuple):
                yield from value
            else:
                yield value
    elif isinstance(obj, tuple):
        for item in obj:
            yield from digests_in(item)


def test_hashtree_outputs_are_plain_bytes():
    tree = MerkleTree([bytes([i]) for i in range(7)])
    path_siblings = [sibling for i in range(7) for sibling in siblings(tree.prove_inclusion(i))]
    folded = [fold_root([leaf_hash(bytes([i]))], tree.prove_inclusion(i), 7) for i in range(7)]
    assert folded == [tree.root] * 7
    assert_plain([tree.root, leaf_hash(b"x"), node_hash(tree.root, tree.root), *path_siblings, *folded])


def test_reader_digests_are_plain_bytes():
    ids = [bytes([i]) * DIGEST_SIZE for i in range(3)]
    r = Reader(write("digest", ids[0]) + write("list<digest>", ids))
    one, many = r.digest(), r.digests("ids", 8)
    assert [one, *many] == [ids[0], *ids]
    assert_plain([one, *many])


def test_decoded_hub_proof_digests_are_plain_bytes(manual_net):
    net = manual_net(["center", "p0", "p1", "p2"], [("center", "p0"), ("center", "p1"), ("center", "p2")]).run(7)
    center = net.nodes["center"]
    proof = decode_proof(encode_proof(build_hub_proof(center.records, (1, 3), center.receipt_log)))
    values = list(digests_in(proof))
    assert_plain(values)
    # Ids, roots and siblings all occur: the walk did not miss a kind.  The
    # three rounds' submissions are held as their signatures alone, so each
    # window round's holder root occurs once, in its holder chain
    # commitment, the issuer ids only in the manifest, and the holder id only
    # in the holder chain's commitments: the proof has no holder id field.
    # 77 since each issuer's prev digest is written in the window's first
    # round only (83 before, 90 before the holder chain dropped its entries'
    # five prev digests and the first entry's two-sibling path).
    assert net.id_of("p0") in values and center.records[2].root in values
    assert [values.count(center.records[r].root) for r in (1, 2, 3)] == [1, 1, 1]
    assert siblings(proof.rounds[0].receipts[0].inclusion)[0] in values
    assert [len(rnd.prev_digests) for rnd in proof.rounds] == [3, 0, 0]
    assert len(values) == 77


def test_identity_digests_are_plain_bytes():
    keys = [keypair_from_seed(f"digest:{i}") for i in range(3)]
    ids = [node_id_for_key(k.verify_key) for k in keys]
    credential = Credential(ids[0], ids[1], ("role", "auditor"), 3, CredentialMode.ISSUER_CONTROLLED)
    policy = RecoveryPolicy(2, tuple(ids))
    commitment = Node("solo", keys[0]).build(("x",)).commitment
    assert_plain([*ids, credential.digest(), policy.digest(), commitment_digest(commitment)])
