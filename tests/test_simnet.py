"""Topology builders and the round-driving engine, faults included."""

import dataclasses
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmesh.config import load_config, make_simulation
from entmesh.entangle import MissingReceiptError, build_chain_proof, build_hub_proof, build_link_proof, encode_proof, verify_link
from entmesh.hashtree import ZERO_DIGEST, Digest, MerkleTree, fold_root, leaf_hash, sha256
from entmesh.identity import _recovery_message
from entmesh.keys import Ed25519Scheme, KeyPair, keypair_from_seed
from entmesh.node import KeyDirectory, build_round, round_leaves
from entmesh.simnet import (
    Equivocate,
    ForkHistory,
    Simulation,
    WithholdReceipt,
    centralized,
    chain,
    fan,
    federated,
    interoperated,
    measure_latency,
    ring,
    validate_topology,
)
from entmesh.simnet.topology import Topology
from entmesh.wire import WireError

from adversary import every_entry_rule, forged_commitment, full_history_audit, held_in_memory, own_prev_digest_audit

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bfs_distances(topo: Topology, source: str) -> dict[str, int]:
    """Hop counts from ``source`` over the undirected link graph."""
    if source not in topo.labels:
        raise ValueError(f"unknown label {source}")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in topo.neighbors(current):
            if neighbor not in dist:
                dist[neighbor] = dist[current] + 1
                queue.append(neighbor)
    return dist


def events_of(sim, type_):
    return [e for e in sim.events if e["type"] == type_]


class TestTopologies:
    def test_centralized(self):
        topo = centralized(4)
        assert len(topo.labels) == 5
        assert topo.anchors == ("hub",)
        assert set(topo.links) == {(f"h{i}", "hub") for i in range(4)}
        assert topo.issuers_of("h0") == ("hub",)
        assert topo.holders_of("hub") == ("h0", "h1", "h2", "h3")

    def test_federated_tiers(self):
        topo = federated(levels=2, arity=3, holders=9)
        assert len(topo.labels) == 13
        assert len(topo.links) == 12
        assert topo.anchors == ("root",)
        # Leaf holders spread across the bottom intermediary tier.
        assert topo.issuers_of("h0") == ("m1-0",)
        assert topo.issuers_of("h1") == ("m1-1",)
        assert topo.issuers_of("h3") == ("m1-0",)

    def test_chain_is_single_file(self):
        topo = chain(3)
        for label in topo.labels:
            assert len(topo.issuers_of(label)) <= 1
            assert len(topo.holders_of(label)) <= 1
        assert topo.anchors == ("root",)
        assert max(bfs_distances(topo, "root").values()) == 3

    def test_ring_distances(self):
        one_way = ring(6)
        d = bfs_distances(one_way, "n0")
        assert d["n1"] == 1 and d["n5"] == 1  # undirected reach for gossip
        mutual = ring(6, mutual=True)
        assert len(mutual.links) == 12
        assert mutual.anchors == ()

    def test_fan_and_interoperated(self):
        f = fan(5)
        assert len(f.links) == 5
        assert set(f.anchors) == {f"p{i}" for i in range(5)}
        inter = interoperated(2, 3)
        assert ("a-hub", "b-hub") in inter.links and ("b-hub", "a-hub") in inter.links

    @settings(max_examples=100, deadline=None)
    @given(links=st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")), max_size=12))
    def test_partners_match_a_scan_of_the_links(self, links):
        # Reference: one scan of every link per lookup, duplicates kept.
        topo = Topology("any", ("a", "b", "c"), tuple(links))
        for label in "abcdef":
            issuers = tuple(sorted(issuer for holder, issuer in links if holder == label))
            holders = tuple(sorted(holder for holder, issuer in links if issuer == label))
            assert topo.issuers_of(label) == issuers
            assert topo.holders_of(label) == holders
            assert topo.neighbors(label) == tuple(sorted({*issuers, *holders}))

    def test_validation_rejects_unknown_labels(self):
        with pytest.raises(ValueError):
            validate_topology(Topology("bad", ("a",), (("a", "ghost"),), (), {}))

    def test_validation_rejects_self_link(self):
        with pytest.raises(ValueError):
            validate_topology(Topology("bad", ("a", "b"), (("a", "a"),), (), {}))

    def test_validation_rejects_unknown_anchor(self):
        with pytest.raises(ValueError):
            validate_topology(Topology("bad", ("a",), (), ("ghost",), {}))


class TestHonestRuns:
    def test_no_fault_events(self):
        sim = Simulation(centralized(3), rounds=6, seed=1).run()
        for bad in ("ReceiptMissing", "ReceiptRejected", "EquivocationDetected", "SelfAuditFailed"):
            assert events_of(sim, bad) == []

    def test_metrics_rows_are_each_nodes_counters_in_order(self):
        sim = Simulation(centralized(3), rounds=4, seed=1).run()
        rows, labels = sim.metrics_rows(), sim.topology.labels
        assert [(row["round"], row["node"]) for row in rows] == [(r, label) for r in range(4) for label in labels]
        counters = [
            "bytes_sent",
            "bytes_received",
            "messages_sent",
            "messages_received",
            "receipts_issued",
            "receipts_received",
            "equivocations_detected",
        ]
        assert all(list(row) == ["round", "node", "retained_bytes", *counters] for row in rows)
        # Each row is a snapshot: the last round's are the final counters, not views of them.
        for row in rows[-len(labels) :]:
            assert {name: row[name] for name in counters} == vars(sim._counters[row["node"]])
        assert rows[0]["bytes_sent"] < rows[-len(labels)]["bytes_sent"]

    def test_nodes_forward_what_their_round_retains_in_evidence_order(self):
        sim = Simulation(ring(4, mutual=True), rounds=6, seed=0)
        forwarded = []
        ingest = sim._ingest_forward

        def hooked(observer, receipt):
            forwarded.append((sim.round, observer, receipt))
            ingest(observer, receipt)

        sim._ingest_forward = hooked
        sim.run()
        expected = [
            (r, target, receipt)
            for r in range(1, sim.rounds)
            for label in sim.topology.labels
            for receipt in sim.nodes[label].record_at(r).state.evidence
            for target in sim.topology.holders_of(label)
        ]
        assert forwarded == expected
        # Each node holds receipts from two issuers, so the order is a real one.
        assert any(len({receipt.issuer_id for receipt in record.state.evidence}) > 1 for record in sim.nodes["n0"].records)

    def test_receipt_lag_is_uniform(self):
        sim = Simulation(chain(3), rounds=7, seed=2).run()
        for label in ("h0", "m2-0", "m1-0"):
            node = sim.nodes[label]
            issuer_id = sim.nodes[sim.topology.issuers_of(label)[0]].node_id
            for r in range(0, sim.rounds - 2):
                receipt = node.receipt_log[(issuer_id, r)]
                assert receipt.issuer_round == r + 1
                retained = node.record_at(r + 2).state.evidence
                assert any(e.holder_round == r and e.issuer_id == issuer_id for e in retained)

    def test_gossip_arrival_matches_distance(self):
        topo = federated(levels=2, arity=2, holders=4)
        sim = Simulation(topo, rounds=8, seed=3).run()
        distances = bfs_distances(sim.topology, "root")
        last = sim.rounds - 1
        for label in topo.labels:
            view = sim.views[label]["root"]
            expected = set(range(0, last - distances[label] + 1))
            assert set(view) == expected, label
            for r, commitment in view.items():
                assert commitment == sim.nodes["root"].record_at(r).commitment

    def test_metrics_shape_and_monotonicity(self):
        sim = Simulation(centralized(2), rounds=5, seed=4).run()
        rows = sim.metrics_rows()
        assert len(rows) == 5 * len(sim.topology.labels)
        by_node = {}
        for row in rows:
            prev = by_node.get(row["node"], 0)
            assert row["bytes_sent"] >= prev  # counters are cumulative
            by_node[row["node"]] = row["bytes_sent"]

    def test_same_seed_same_run(self):
        a = Simulation(federated(2, 2, 4), rounds=6, seed=9).run()
        b = Simulation(federated(2, 2, 4), rounds=6, seed=9).run()
        assert a.events == b.events
        assert a.metrics_rows() == b.metrics_rows()
        for label in a.topology.labels:
            assert a.nodes[label].latest.root == b.nodes[label].latest.root

    def test_different_seed_different_keys(self):
        a = Simulation(centralized(1), rounds=2, seed=1).run()
        b = Simulation(centralized(1), rounds=2, seed=2).run()
        assert a.nodes["hub"].node_id != b.nodes["hub"].node_id

    def test_path_to_anchor(self):
        sim = Simulation(chain(3), rounds=3, seed=5)
        assert sim.path_to_anchor("h0") == ["h0", "m2-0", "m1-0", "root"]
        assert sim.path_to_anchor("root") == ["root"]

    def test_measure_latency_equals_hop_count(self):
        sim = Simulation(chain(4), rounds=9, seed=6).run()
        assert measure_latency(sim, "h0", probe_round=2) == 4
        assert measure_latency(sim, "m1-0", probe_round=2) == 1

    def test_anchor_prunes_to_roots(self):
        sim = Simulation(centralized(2), rounds=5, seed=7).run()
        hub = sim.nodes["hub"]
        assert all(record.state is None for record in hub.records)
        per_round = len(hub.records[0].commitment.to_bytes()) + 32
        assert sim.retained_bytes("hub") == 5 * per_round

    def test_prune_can_be_disabled(self):
        sim = Simulation(centralized(2), rounds=5, seed=7, prune_anchors=False).run()
        assert all(record.state is not None for record in sim.nodes["hub"].records)

    def test_scheduled_hooks_run_in_order(self):
        sim = Simulation(centralized(1), rounds=3, seed=8)
        trace = []
        sim.at(1, lambda s: trace.append(("pre", s.round)), phase="pre")
        sim.at(1, lambda s: trace.append(("post", s.round)), phase="post")
        sim.run()
        assert trace == [("pre", 1), ("post", 1)]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Simulation(centralized(1), rounds=0)
        with pytest.raises(TypeError):
            Simulation(centralized(1), rounds=2, faults=["not-a-fault"])
        with pytest.raises(ValueError):
            Simulation(
                centralized(2),
                rounds=2,
                faults=[
                    Equivocate("hub", 1, ("h0",)),
                    Equivocate("hub", 1, ("h1",)),
                ],
            )


class TestEquivocation:
    def make(self, seed=11, start=3, rounds=8):
        topo = federated(levels=2, arity=3, holders=9)
        fault = Equivocate("m1-0", start, ("h0",))
        return Simulation(topo, rounds=rounds, seed=seed, faults=[fault]).run()

    def test_fork_victim_detects_within_two_rounds(self):
        sim = self.make()
        hits = sim.detected("m1-0")
        assert hits, "fork went unnoticed"
        first = hits[0]
        assert first["observer"] == "h0"
        assert first["detected_round"] == 5
        assert first["offender_round"] == 3
        assert first["source"] == "forward"

    def test_bystanders_see_nothing(self):
        sim = self.make()
        observers = {e["observer"] for e in sim.detected("m1-0")}
        assert observers == {"h0"}

    def test_victim_never_rejects_the_forked_receipts(self):
        # The fork is self-consistent; only cross-correlation exposes it.
        sim = self.make()
        rejected = [e for e in events_of(sim, "ReceiptRejected") if e["holder"] == "h0"]
        assert rejected == []

    def test_upstream_chain_stays_clean(self):
        sim = self.make()
        assert events_of(sim, "SelfAuditFailed") == []
        assert events_of(sim, "SubmissionRejected") == []

    def test_detection_repeats_for_later_forked_rounds(self):
        sim = self.make()
        rounds_flagged = sorted({e["offender_round"] for e in sim.detected("m1-0")})
        assert rounds_flagged[0] == 3
        assert len(rounds_flagged) >= 2  # the fork persists, so do detections


class TestWithholding:
    def test_receipt_gap_is_visible_and_recoverable(self):
        fault = WithholdReceipt(node="hub", victim="h0", start_round=3, end_round=4)
        sim = Simulation(centralized(2), rounds=8, seed=12, faults=[fault], prune_anchors=False).run()

        withheld = events_of(sim, "ReceiptWithheld")
        assert {e["round"] for e in withheld} == {3, 4}
        assert all(e["holder"] == "h0" for e in withheld)
        missing = events_of(sim, "ReceiptMissing")
        assert {e["round"] for e in missing} == {3, 4}

        # The victim cannot produce link evidence for the withheld rounds.
        h0 = sim.nodes["h0"]
        hub_id = sim.nodes["hub"].node_id
        with pytest.raises(MissingReceiptError):
            build_link_proof(h0.records, hub_id, (2, 3), h0.receipt_log)

        # Receipts resume afterwards and later windows stay provable.
        assert (hub_id, 5) in h0.receipt_log
        proof = build_link_proof(h0.records, hub_id, (5, 5), h0.receipt_log)
        trusted = {r.round: r.commitment for r in sim.nodes["hub"].records}
        from entmesh.entangle import verify_link

        assert verify_link(proof, trusted, sim.directory)

    def test_unaffected_holder_keeps_full_log(self):
        fault = WithholdReceipt(node="hub", victim="h0", start_round=3, end_round=4)
        sim = Simulation(centralized(2), rounds=8, seed=12, faults=[fault]).run()
        h1 = sim.nodes["h1"]
        hub_id = sim.nodes["hub"].node_id
        assert all((hub_id, r) in h1.receipt_log for r in range(0, 7))


class TestHistoryFork:
    def test_rewrite_is_rejected_by_both_sides(self):
        sim = Simulation(
            chain(2), rounds=6, seed=13, faults=[ForkHistory(node="m1-0", round=2)]
        ).run()
        assert events_of(sim, "HistoryForked") == [
            {"round": 2, "type": "HistoryForked", "node": "m1-0", "rewritten_round": 1}
        ]
        rejections = {(e["holder"], e["reason"]) for e in events_of(sim, "ReceiptRejected")}
        # Downstream holder: the issuer chain no longer matches its receipts.
        assert ("h0", "ChainBreak") in rejections
        # The rewriter itself: upstream receipt attests the erased root.
        assert ("m1-0", "ReceiptMismatch") in rejections


class TestKeptChainLinks:
    def test_second_chain_proof_build_proves_no_link(self, monkeypatch):
        # The chain proof the benchmark's verify-mix workload builds.
        sim = Simulation(chain(4), rounds=10, seed=0).run()
        ids = [sim.nodes[label].node_id for label in sim.path_to_anchor("h0")]
        build = lambda: build_chain_proof(sim.records_by_id(), sim.receipts_by_id(), ids, 2, 2)
        first = build()
        ranges = []
        prove_range = MerkleTree.prove_range

        def counted(tree, a, b):
            ranges.append((a, b))
            return prove_range(tree, a, b)

        monkeypatch.setattr(MerkleTree, "prove_range", counted)
        second = build()
        # Only the evidence proofs, one per hop round; a first-leaf proof would start at 0.
        assert len(ranges) == sum(len(hop.rounds) for hop in second.hops)
        assert all(a > 0 for a, _ in ranges)
        assert encode_proof(second) == encode_proof(first)
        for a, b in zip(first.hops, second.hops):
            assert all(x is y for x, y in zip(a.holder_chain.commitments, b.holder_chain.commitments))
            assert all(x is y for x, y in zip(a.holder_chain.links, b.holder_chain.links))

    def test_rewritten_round_gets_a_fresh_link(self):
        sim = Simulation(chain(2), rounds=8, seed=13, faults=[ForkHistory(node="m1-0", round=2)], audit_every=2)
        kept = {}
        sim.at(2, lambda sim: kept.update(old=sim.nodes["m1-0"].record_at(1)))
        sim.run()
        # The rewrite chains, so the audits pass over it, on its fresh link.
        assert events_of(sim, "SelfAuditFailed") == events_of(sim, "ChainAuditFailed") == []
        rewritten = sim.nodes["m1-0"].record_at(1)
        assert rewritten.commitment is not kept["old"].commitment
        assert rewritten.link is not kept["old"].link and rewritten.link.proof == rewritten.tree.prove_inclusion(0)

    def test_replaced_record_is_audited_on_its_own_link(self):
        # A record swapped for one whose tree, of another payload, does not
        # match its commitment, after the audits checked the old record's
        # link: both audits see it, by the link's fold.  An audit checks the
        # signed chain and does not read a record's own prev digest, so a
        # record that changed only that would still link.
        def forge(sim):
            node = sim.nodes["m1-0"]
            old = node.record_at(2)
            state = dataclasses.replace(old.state, payload=("forged",))
            tree, _ = build_round(state, node.keypair)
            node.records[2] = dataclasses.replace(old, state=state, tree=tree)
            assert node.records[2].link.proof != old.link.proof

        sim = Simulation(chain(2), rounds=8, seed=13, audit_every=2)
        sim.at(3, forge)
        sim.run()
        assert [(e["round"], e["type"], e["node"], e["reason"]) for e in sim.events if e["type"].endswith("AuditFailed")] == [
            (3, "SelfAuditFailed", "m1-0", "ChainBreak"),
            (4, "ChainAuditFailed", "m1-0", "ChainBreak"),
            (6, "ChainAuditFailed", "m1-0", "ChainBreak"),
        ]
        # The audit as it read each record's own prev digest reports the same.
        reference = Simulation(chain(2), rounds=8, seed=13, audit_every=2)
        reference._audit = lambda label, start: own_prev_digest_audit(reference, label, start)
        reference.at(3, forge)
        assert reference.run().events == sim.events


def _scenario_at_seed_7(path):
    return lambda: make_simulation(load_config(path), seed=7)


AUDIT_RUNS = {
    **{path.name: _scenario_at_seed_7(path) for path in sorted(SCENARIOS.glob("*.yaml"))},
    "federated-audited-faults": lambda: RETAINED_RUNS["federated-audited-faults"](True),
}


class TestAuditRule:
    @pytest.mark.parametrize("run", sorted(AUDIT_RUNS))
    def test_same_run_as_the_own_prev_digest_audit(self, run):
        # Each audit folds a record's link with its predecessor's digest; the
        # reference folds the record's path with its own prev digest, then
        # compares that digest with its predecessor's.  No event, metric or
        # root differs.
        sim = AUDIT_RUNS[run]().run()
        reference = AUDIT_RUNS[run]()
        reference._audit = lambda label, start: own_prev_digest_audit(reference, label, start)
        reference.run()
        assert sim.events == reference.events
        assert sim.metrics_rows() == reference.metrics_rows()
        for label in sim.topology.labels:
            assert [r.commitment for r in sim.nodes[label].records] == [
                r.commitment for r in reference.nodes[label].records
            ], label


def every_round_post(sim, check):
    for r in range(sim.rounds):
        sim.at(r, check, phase="post")
    return sim


def recomputed_retained_bytes(node):
    """From-scratch size: every commitment and root, plus the leaves of
    each round that is not pruned."""
    total = 0
    for record in node.records:
        total += len(record.commitment.to_bytes()) + 32
        if record.state is not None:
            total += sum(len(leaf) for leaf in round_leaves(record.state))
    return total


RETAINED_RUNS = {
    "fork-history": lambda prune: Simulation(
        chain(2), rounds=6, seed=13, faults=[ForkHistory(node="m1-0", round=2)], prune_anchors=prune
    ),
    "fork-history-at-anchor": lambda prune: Simulation(
        chain(2), rounds=6, seed=13, faults=[ForkHistory(node="root", round=3)], prune_anchors=prune
    ),
    "equivocate": lambda prune: Simulation(
        federated(levels=2, arity=3, holders=9),
        rounds=7,
        seed=11,
        faults=[Equivocate("m1-0", 3, ("h0",))],
        prune_anchors=prune,
        audit_every=3,
    ),
    "identity": lambda prune: make_simulation(
        dataclasses.replace(load_config(SCENARIOS / "identity.yaml"), prune_anchors=prune)
    ),
    "federated-audited-faults": lambda prune: Simulation(
        federated(levels=3, arity=3, holders=18),
        rounds=12,
        seed=17,
        faults=[
            Equivocate("m1-0", 4, ("m2-0",)),
            WithholdReceipt("m2-3", "h3", 3, 6),
            ForkHistory(node="m2-4", round=5),
            ForkHistory(node="h9", round=8),
        ],
        prune_anchors=prune,
        audit_every=4,
    ),
}


class TestRetainedBytes:
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("run", sorted(RETAINED_RUNS))
    def test_matches_recomputation_every_round(self, run, prune):
        checked = []

        def check(sim):
            for label, node in sim.nodes.items():
                assert sim.retained_bytes(label) == recomputed_retained_bytes(node), (label, sim.round)
            checked.append(sim.round)

        sim = every_round_post(RETAINED_RUNS[run](prune), check).run()
        assert checked == list(range(sim.rounds))
        # After the final archival prune as well.
        for label, node in sim.nodes.items():
            assert sim.retained_bytes(label) == recomputed_retained_bytes(node)


class TestAnchorPruning:
    @pytest.mark.parametrize(
        "topo",
        [centralized(3), federated(levels=2, arity=2, holders=4), fan(3), interoperated(2, 2)],
        ids=lambda topo: topo.name,
    )
    def test_only_rounds_below_current_are_pruned(self, topo):
        pure_anchors = {a for a in topo.anchors if not topo.issuers_of(a)}
        seen = []

        def check(sim):
            r = sim.round
            for label, node in sim.nodes.items():
                pruned = [record.round for record in node.records if record.state is None]
                if label in pure_anchors:
                    assert pruned == list(range(r)), (label, r)
                    assert node.record_at(r).tree is not None
                else:
                    assert pruned == [], (label, r)
            seen.append(r)

        sim = every_round_post(Simulation(topo, rounds=5, seed=21), check).run()
        assert seen == list(range(5))


def _flip_first_sibling(proof):
    first, *rest = proof.siblings
    return proof._replace(siblings=(bytes([first[0] ^ 1]) + first[1:], *rest))


def _with_paths(rc, **changes):
    return dataclasses.replace(rc, paths=dataclasses.replace(rc.paths, **changes))


def _prev_path_at_leaf_1(rc):
    return rc.paths.prev_inclusion._replace(leaf_index=1)


# Every tamper re-encodes: stale bytes could hide it from a check that reads
# the kept bytes.  A prev-leaf path off leaf 0 is no tamper: it cannot be made.
RECEIPT_TAMPERS = {
    "submission-sibling": lambda rc: _with_paths(rc, inclusion=_flip_first_sibling(rc.paths.inclusion)),
    "submission-extra-sibling": lambda rc: _with_paths(
        rc, inclusion=rc.paths.inclusion._replace(siblings=rc.paths.inclusion.siblings + (ZERO_DIGEST,))
    ),
    "prev-digest": lambda rc: dataclasses.replace(rc, prev_digest=Digest(sha256(b"another prev"))),
    "unsigned-round": lambda rc: dataclasses.replace(
        rc, issuer_commitment=dataclasses.replace(rc.issuer_commitment, round=rc.issuer_commitment.round + 7)
    ),
}


class TestReceiptPathsAgree:
    """The holder, a link verifier and a forwarding observer reject the same
    tampered receipt for the same reason.

    In federated(2, 3, 9), root issues receipts to the m1 nodes, which
    forward them to their own holders.  Root's trees have 6 leaves.
    """

    SEED, ROUND = 5, 2
    TOPOLOGY = federated(levels=2, arity=3, holders=9)

    @pytest.fixture(scope="class")
    def run(self):
        sim = Simulation(self.TOPOLOGY, rounds=6, seed=self.SEED).run()
        root_id = sim.nodes["root"].node_id
        # Leaf 3 of a 6-leaf tree takes 3 siblings; with a fourth it is the
        # path of leaf 3 in a tree of 9 or more leaves.  A path holds no tree
        # size: only the signed leaf count, in which the fold derives the
        # sibling count, rejects it.
        receipts = {label: sim.nodes[label].receipt_log[(root_id, self.ROUND)] for label in ("m1-0", "m1-1", "m1-2")}
        holder = next(label for label, rc in receipts.items() if rc.paths.inclusion.leaf_index == 3)
        assert receipts[holder].issuer_commitment.leaf_count == 6
        return sim, holder, receipts[holder]

    def forward(self, sim, holder, receipt):
        # An observer that has not run yet: no claims and no events so far.
        observer = Simulation(self.TOPOLOGY, rounds=6, seed=self.SEED)
        label = sim.topology.holders_of(holder)[0]
        observer._ingest_forward(label, receipt)
        return label, observer.events, observer._claims[label]

    def test_genuine_receipt_passes_every_path(self, run):
        sim, holder, receipt = run
        assert sim.nodes[holder].verify_receipt(receipt, sim.directory)
        _, events, claims = self.forward(sim, holder, receipt)
        assert events == [] and len(claims) == 2

    def test_prev_leaf_path_off_index_0_cannot_be_made(self, run):
        _, _, receipt = run
        off_index = _prev_path_at_leaf_1(receipt)
        with pytest.raises(WireError, match="^path at leaf 1, not at leaf 0$"):
            _with_paths(receipt, prev_inclusion=off_index)
        # Nor with its old bytes passed in, as a peer may hold a receipt's paths.
        with pytest.raises(WireError, match="^path at leaf 1, not at leaf 0$"):
            held_in_memory(receipt.paths, prev_inclusion=off_index)

    @pytest.mark.parametrize("tamper", sorted(RECEIPT_TAMPERS))
    def test_tampered_receipt(self, run, tamper):
        sim, holder, receipt = run
        bad = RECEIPT_TAMPERS[tamper](receipt)
        if tamper == "submission-extra-sibling":
            leaf = leaf_hash(bad.submission.leaf_bytes())
            assert fold_root([leaf], bad.paths.inclusion, 9) is not None
            assert fold_root([leaf], bad.paths.inclusion, bad.issuer_commitment.leaf_count) is None
        reason = "BadSignature" if tamper == "unsigned-round" else "ReceiptInvalid"
        assert sim.nodes[holder].verify_receipt(bad, sim.directory).reason == reason
        label, events, claims = self.forward(sim, holder, bad)
        assert events == [{"round": 0, "type": "ForwardRejected", "observer": label, "reason": reason}]
        assert claims == {}
        if tamper == "unsigned-round":
            return  # a link verifier rejects the wrong round before any signature
        root_id = sim.nodes["root"].node_id
        receipts = {**sim.nodes[holder].receipt_log, (root_id, self.ROUND): bad}
        proof = build_link_proof(sim.nodes[holder].records, root_id, (self.ROUND, self.ROUND), receipts)
        trusted = {record.round: record.commitment for record in sim.nodes["root"].records}
        assert verify_link(proof, trusted, sim.directory).reason == reason


def _federated_with_faults():
    return Simulation(
        federated(levels=3, arity=3, holders=18),
        rounds=60,
        seed=3,
        faults=[Equivocate("m2-0", 4, ("h0",)), WithholdReceipt("m2-1", "h1", 5, 9), ForkHistory("m2-2", 7)],
        audit_every=10,
    )


MEMO_RUNS = {
    **{path.name: (lambda path=path: make_simulation(load_config(path))) for path in sorted(SCENARIOS.glob("*.yaml"))},
    "federated-3x3-18x60-faults": _federated_with_faults,
}


@pytest.fixture
def ed25519_calls(monkeypatch):
    """Every Ed25519 verify made while the fixture is active, as
    ((verify_key, message, signature), result)."""
    calls = []
    verify = Ed25519Scheme.verify

    def counted(self, verify_key, message, signature):
        ok = verify(self, verify_key, message, signature)
        calls.append(((bytes(verify_key), bytes(message), bytes(signature)), ok))
        return ok

    monkeypatch.setattr(Ed25519Scheme, "verify", counted)
    return calls


class TestSignatureMemo:
    """Inside a run every signature check goes through a memoizing view of
    the key directory; ``sim.directory`` itself stays plain."""

    @pytest.mark.parametrize("run", sorted(MEMO_RUNS))
    def test_same_run_as_the_plain_directory(self, run, monkeypatch):
        memo = MEMO_RUNS[run]().run()
        # The reference run also audits each chain by the every-entry rule, and
        # its chain audits walk each node's whole history, so neither the audits'
        # head rule nor their start changes an event, metric or root.
        monkeypatch.setattr("entmesh.simnet.engine.verify_chain_entries", every_entry_rule)
        monkeypatch.setattr(Simulation, "_phase_chain_audit", lambda sim, r: full_history_audit(sim, r, every_entry_rule))
        reference = MEMO_RUNS[run]()
        reference._verifier = reference.directory
        reference.run()
        assert memo.events == reference.events
        assert memo.metrics_rows() == reference.metrics_rows()
        for label in memo.topology.labels:
            assert [r.commitment for r in memo.nodes[label].records] == [
                r.commitment for r in reference.nodes[label].records
            ], label

    @pytest.mark.parametrize("run", sorted(MEMO_RUNS))
    def test_every_remembered_triple_verifies(self, run):
        # Each place the engine signs teaches the memo the key, bytes and signature it signed.
        sim = MEMO_RUNS[run]().run()
        assert sim._signatures
        assert [triple for triple in sim._signatures if not Ed25519Scheme().verify(*triple)] == []

    @pytest.mark.parametrize("scenario", sorted(path.name for path in SCENARIOS.glob("*.yaml")))
    def test_a_bundled_scenario_makes_no_ed25519_verify(self, scenario, ed25519_calls):
        sim = make_simulation(load_config(SCENARIOS / scenario)).run()
        if scenario != "identity.yaml":
            assert ed25519_calls == []
            return
        # Only the recovery's guardian endorsements, which go through the plain directory.
        h1 = sim.nodes["h1"]
        message = _recovery_message(h1.node_id, h1.keypair.verify_key)
        guardians = sorted(sim.nodes[label].keypair.verify_key for label in ("h0", "h2", "hub"))
        assert sorted((key, signed, ok) for (key, signed, _), ok in ed25519_calls) == [(key, message, True) for key in guardians]

    def test_a_learned_triple_never_answers_for_a_rebound_key(self, ed25519_calls):
        sim = Simulation(centralized(3), rounds=4, seed=2).run()
        h0 = sim.nodes["h0"]
        commitment = h0.record_at(2).commitment
        assert (h0.keypair.verify_key, commitment.message(), commitment.signature) in sim._signatures
        assert sim._verifier.verify_commitment(commitment)
        assert ed25519_calls == []  # neither the run nor this check verified it
        sim.directory.rebind(h0.node_id, keypair_from_seed("another key").verify_key, from_round=2)
        assert not sim._verifier.verify_commitment(commitment)
        assert [ok for _, ok in ed25519_calls] == [False]
        assert sim._verifier.verify_commitment(h0.record_at(1).commitment)
        assert len(ed25519_calls) == 1

    def test_another_nodes_signature_over_a_signed_message(self, ed25519_calls):
        sim = Simulation(centralized(3), rounds=4, seed=2).run()
        commitment = sim.nodes["h0"].record_at(2).commitment
        resigned = dataclasses.replace(commitment, signature=sim.nodes["h1"].keypair.sign(commitment.message()))
        for _ in range(2):
            assert not sim._verifier.verify_commitment(resigned)
        assert [ok for _, ok in ed25519_calls] == [False, False]

    def test_only_a_signature_the_run_did_not_make_reaches_ed25519_every_time(self, ed25519_calls):
        sim = Simulation(
            federated(levels=2, arity=3, holders=9),
            rounds=12,
            seed=11,
            faults=[Equivocate("m1-0", 3, ("h0",)), ForkHistory("m1-1", 5)],
            audit_every=4,
        )
        root_id = sim.nodes["root"].node_id

        def forward_forged_twice(sim):
            receipt = sim.nodes["m1-2"].receipt_log[(root_id, 3)]
            forged = dataclasses.replace(receipt, issuer_commitment=forged_commitment(receipt.issuer_commitment))
            for _ in range(2):
                sim._ingest_forward("h2", forged)

        sim.at(6, forward_forged_twice, phase="post")
        sim.run()
        # The equivocation and the fork are signed by the run; the forged commitment, forwarded twice, is not.
        failed = [triple for triple, ok in ed25519_calls if not ok]
        assert len(failed) == 2 and failed[0] == failed[1]
        assert len(ed25519_calls) == len(failed)
        rejected = [e for e in events_of(sim, "ForwardRejected") if e["round"] == 6]
        assert rejected == [{"round": 6, "type": "ForwardRejected", "observer": "h2", "reason": "BadSignature"}] * 2

    def test_a_valid_signature_the_run_did_not_make_is_checked_every_time(self, ed25519_calls):
        sim = Simulation(centralized(3), rounds=4, seed=2).run()
        h0 = sim.nodes["h0"]
        message = b"signed outside the run"
        signature = h0.keypair.sign(message)
        for _ in range(3):
            assert sim._verifier.verify_signature(h0.node_id, 2, message, signature)
        assert ed25519_calls == [((h0.keypair.verify_key, message, signature), True)] * 3

    def test_flipped_signature_over_memoized_message(self, ed25519_calls):
        sim = Simulation(centralized(3), rounds=4, seed=2).run()
        commitment = sim.nodes["h0"].record_at(2).commitment
        del ed25519_calls[:]
        assert sim._verifier.verify_commitment(commitment)
        assert ed25519_calls == []  # checked during the run already
        forged = forged_commitment(commitment)
        assert not sim._verifier.verify_commitment(forged)
        assert not sim._verifier.verify_commitment(forged)
        assert [ok for _, ok in ed25519_calls] == [False, False]

    def test_old_key_refused_from_the_recovery_round(self):
        config = load_config(SCENARIOS / "identity.yaml")
        sim = make_simulation(config).run()
        assert any(e["type"] == "KeyRecovered" and e["effective_round"] == 7 for e in sim.events)
        h1 = sim.nodes["h1"]
        old_key = keypair_from_seed(f"{config.seed}:h1")
        assert sim._verifier.key_at(h1.node_id, 7) == h1.keypair.verify_key != old_key.verify_key
        assert sim._verifier.verify_commitment(h1.record_at(6).commitment)
        message = h1.record_at(7).commitment.message()
        by_old_key = old_key.sign(message)
        # The run did not make this signature: Ed25519 passes it under the key bound at round 6 ...
        assert sim._verifier.verify_signature(h1.node_id, 6, message, by_old_key)
        # ... and fails it under the new key, bound from round 7.
        for round_no in (7, 8):
            assert not sim._verifier.verify_signature(h1.node_id, round_no, message, by_old_key)
            assert not sim.directory.verify_signature(h1.node_id, round_no, message, by_old_key)

    def test_a_fork_at_the_recovery_round_signs_with_the_old_key(self):
        config = load_config(SCENARIOS / "identity.yaml")
        config = dataclasses.replace(config, faults=(*config.faults, ForkHistory(node="h1", round=7)))
        sim = make_simulation(config).run()
        h1 = sim.nodes["h1"]
        old_key = keypair_from_seed(f"{config.seed}:h1")
        assert h1.keypair_at(6).verify_key == old_key.verify_key
        assert h1.keypair_at(7) is h1.keypair and h1.keypair.verify_key != old_key.verify_key
        rewritten = h1.record_at(6)
        assert rewritten.state.payload == ("data", "h1", 6, "forked")
        assert sim.directory.verify_commitment(rewritten.commitment)
        assert not events_of(sim, "SelfAuditFailed")

    def test_directory_stays_plain(self, ed25519_calls):
        sim = make_simulation(load_config(SCENARIOS / "link.yaml")).run()
        assert type(sim.directory) is KeyDirectory
        holder, hub = sim.nodes["h0"], sim.nodes["hub"]
        proof = build_link_proof(holder.records, hub.node_id, (1, 4), holder.receipt_log)
        trusted = {record.round: record.commitment for record in hub.records}
        counts = []
        for _ in range(2):
            del ed25519_calls[:]
            assert verify_link(proof, trusted, sim.directory)
            counts.append(len(ed25519_calls))
        assert counts[0] == counts[1] > 0


class TestOneSubmissionPerHolderRound:
    """A holder signs one submission per round and hands that one object to
    each of its issuers; signatures are deterministic, so no byte moves."""

    def test_every_issuer_entangles_the_same_object(self):
        sim = Simulation(fan(5), rounds=6, seed=3).run()
        center = sim.nodes["center"]
        partners = [sim.nodes[f"p{i}"].node_id for i in range(5)]
        for r in range(sim.rounds - 1):
            # A receipt carries the submission its issuer entangled.
            entangled = [center.receipt_log[(partner, r)].submission for partner in partners]
            assert all(sub is entangled[0] for sub in entangled), r

    def test_fan40_signs_once_per_node_round(self, monkeypatch):
        signed = []
        sign = KeyPair.sign
        monkeypatch.setattr(KeyPair, "sign", lambda self, message: signed.append(message) or sign(self, message))
        Simulation(fan(40), rounds=8, seed=3).run()
        # 41 commitments a round, and the centre's one submission a round (40 before).
        assert len(signed) == 41 * 8 + 8 == 336


@pytest.mark.parametrize(
    "sim",
    [
        Simulation(ring(6, mutual=True), rounds=8, seed=2),
        Simulation(fan(12), rounds=7, seed=1),
        Simulation(
            federated(2, 3, 9),
            rounds=12,
            seed=4,
            faults=(Equivocate("m1-0", 4, ("h0",)), WithholdReceipt("m1-1", "h3", 5, 7)),
            audit_every=5,
        ),
    ],
    ids=lambda sim: sim.topology.name,
)
def test_a_holder_rounds_receipts_are_one_run_of_leaves(sim):
    """Round r's tree retains evidence for holder round r - 2 only, sorted by
    issuer: a holder round's receipts are one run of leaves in manifest order,
    which is what a hub proof's one range proof per round covers."""
    sim.run()
    built = 0
    for node in sim.nodes.values():
        for record in node.records:
            if record.state is not None and record.state.evidence:
                assert {receipt.holder_round for receipt in record.state.evidence} == {record.round - 2}
        if not node.manifest:
            continue
        for r in range(sim.rounds - 2):
            try:
                build_hub_proof(node.records, (r, r), node.receipt_log)
            except MissingReceiptError:
                continue  # a withheld or not yet issued receipt, never a broken run
            built += 1
    assert built
