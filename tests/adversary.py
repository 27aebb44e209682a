"""Builders for inputs no honest node makes, shared by the test modules.

Signed trees a real key signs but no honest build makes, forged signatures
and chain entries, proofs with one part swapped, and the every-entry
reference rule for holder chains.  pytest does not collect this file: its
name has no ``test_`` prefix.
"""

import dataclasses

from entmesh.hashtree import MerkleTree
from entmesh.node import LEAF_PREV, Commitment, Verdict, verify_chain_entries


def signed_tree(node, round_no, leaves):
    """``leaves`` as a tree, and ``node``'s commitment to it at ``round_no``, signed with its own key."""
    tree = MerkleTree(leaves)
    unsigned = Commitment(node.node_id, round_no, tree.root, tree.size, b"")
    return tree, dataclasses.replace(unsigned, signature=node.keypair.sign(unsigned.message()))


def prev_leaf(digest):
    return bytes([LEAF_PREV]) + digest


def flip(signature):
    return bytes([signature[0] ^ 1]) + signature[1:]


def forged_commitment(commitment):
    """``commitment`` differing only in its signature."""
    return dataclasses.replace(commitment, signature=flip(commitment.signature))


def forged_entry(entry):
    """``entry`` with its commitment's signature forged."""
    return dataclasses.replace(entry, commitment=forged_commitment(entry.commitment))


def swap(items, index, item):
    items = list(items)
    items[index] = item
    return tuple(items)


def forge_at(items, index, forge):
    return swap(items, index, forge(items[index]))


def with_round(proof, index, **changes):
    """``proof`` with its window round ``index`` changed by ``changes``."""
    return dataclasses.replace(proof, rounds=forge_at(proof.rounds, index, lambda rnd: rnd._replace(**changes)))


def forged_round_submission(proof, index):
    """``proof`` with the holder's signature on window round ``index``'s submission forged."""
    return with_round(proof, index, signature=flip(proof.rounds[index].signature))


def every_entry_rule(entries, directory):
    """The slow reference for a holder chain: ``verify_chain_entries``, then
    BadSignature for the first entry, in round order, whose signature fails
    under the key bound at its round.  It refuses what
    ``verify_chain_entries`` refuses, and more only when an inner entry's
    signature is bad under a head that the holder's key signed.
    """
    verdict = verify_chain_entries(entries, directory)
    if not verdict:
        return verdict
    for entry in entries:
        if not directory.verify_commitment(entry.commitment):
            return Verdict.failed("BadSignature", f"round {entry.commitment.round}")
    return verdict
