"""Shared fixtures: a hand-driven multi-node harness independent of the
simulation engine, so protocol-level tests exercise the node state machine
directly."""

from __future__ import annotations

import pytest

from entmesh.keys import keypair_from_seed
from entmesh.node import KeyDirectory, Node


class ManualNet:
    """Drives nodes through rounds by hand.

    ``links`` are (holder, issuer) label pairs.  Each round: everyone
    builds, holders submit, issuers acknowledge last round's submissions,
    and receipts queue up as evidence for the round after next.
    """

    def __init__(self, labels, links, seed="net"):
        self.labels = tuple(labels)
        self.links = tuple(links)
        self.directory = KeyDirectory()
        self.nodes = {}
        for label in self.labels:
            node = Node(label, keypair_from_seed(f"{seed}:{label}"))
            self.nodes[label] = node
            self.directory.register(node.node_id, node.keypair.verify_key)
        for label in self.labels:
            partners = [self.nodes[i].node_id for h, i in self.links if h == label]
            self.nodes[label].set_manifest(partners)
        self._awaiting = {}
        self.round = -1
        self.receipt_failures = []

    def run_round(self, payloads=None, skip_receipts=()):
        self.round += 1
        payloads = payloads or {}
        for label in self.labels:
            node = self.nodes[label]
            node.build(payloads.get(label, ("data", label, self.round)))
        submitted = {}
        for holder, issuer in self.links:
            sub = self.nodes[holder].make_submission()
            assert self.nodes[issuer].receive_submission(sub, self.directory)
            submitted[(holder, issuer)] = sub
        for (holder, issuer), sub in self._awaiting.items():
            if (holder, issuer) in skip_receipts:
                continue
            receipt = self.nodes[issuer].issue_receipt(sub)
            verdict = self.nodes[holder].receive_receipt(receipt, self.directory)
            if not verdict:
                self.receipt_failures.append((holder, issuer, self.round, verdict))
        self._awaiting = submitted

    def run(self, rounds, **kwargs):
        for _ in range(rounds):
            self.run_round(**kwargs)
        return self

    def records_by_id(self):
        return {node.node_id: node.records for node in self.nodes.values()}

    def receipts_by_id(self):
        return {node.node_id: node.receipt_log for node in self.nodes.values()}

    def id_of(self, label):
        return self.nodes[label].node_id

    def commitments_of(self, label):
        return {record.round: record.commitment for record in self.nodes[label].records}


@pytest.fixture
def manual_net():
    return ManualNet
