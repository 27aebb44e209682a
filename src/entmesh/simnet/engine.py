"""Round-driven simulation of an entanglement network.

Each round runs a fixed phase schedule; every phase iterates nodes and
links in listed order, and all per-node collections are sorted, so a run
is a pure function of (topology, rounds, seed, faults).

Phases, round r:
  0. scheduled pre-build operations (credential issuance, recovery, ...)
  1. every node builds and signs its round-r tree
  2. self-audit of the chain from round r-1, then pure trust anchors
     replace their round r-1 record with one of root + commitment
  3. every holder submits its new root along each link
  4. issuers acknowledge the submissions entangled in their round-r trees;
     holders validate receipts and notice missing ones
  5. nodes forward the receipts their round-r trees retain as evidence,
     in evidence order, to their own holders, which is what lets a
     downstream node compare an issuer's claims across branches
  6. anchor commitments gossip one hop per round
  7. scheduled post-build operations
  8. periodic chain audit, from each node's last passing audit head on
  9. cumulative metrics snapshot

The engine is deliberately message-faithful: everything a node learns
arrives as bytes over a link and is signature-checked before it can
influence that node's view.  A check of a signature the run itself made,
or one that already passed, is answered from the run's memo
(``_CheckedOnce``) without Ed25519: its answer cannot differ.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..entangle import build_chain_proof, verify_chain
from ..hashtree import Digest
from ..identity import CredentialRegistry
from ..keys import Ed25519Scheme, KeyPair, NodeId, keypair_from_seed
from ..node import (
    Commitment,
    HolderChain,
    KeyDirectory,
    Node,
    NodeRecord,
    Receipt,
    StaleSubmissionError,
    Submission,
    Verdict,
    build_round,
    check_receipt,
    verify_chain_entries,
)
from ..sexpr import Expr
from .topology import Topology, validate_topology

__all__ = [
    "Equivocate",
    "ForkHistory",
    "Simulation",
    "WithholdReceipt",
    "measure_latency",
]


@dataclass(frozen=True)
class Equivocate:
    """From ``start_round`` on, ``node`` maintains two signed lineages:
    the real one (submitted upstream, receipted to most holders) and a
    forked one receipted only to ``fork_targets``."""

    node: str
    start_round: int
    fork_targets: tuple[str, ...]


@dataclass(frozen=True)
class WithholdReceipt:
    """``node`` stops acknowledging ``victim``'s submissions."""

    node: str
    victim: str
    start_round: int
    end_round: Optional[int] = None

    def active(self, round_no: int) -> bool:
        if round_no < self.start_round:
            return False
        return self.end_round is None or round_no <= self.end_round


@dataclass(frozen=True)
class ForkHistory:
    """At ``round``, ``node`` silently rewrites its previous round and
    continues the chain from the rewrite."""

    node: str
    round: int


class _CheckedOnce(KeyDirectory):
    """A run's memoizing view of its key directory.

    It shares the directory's bindings, so a rebinding applied to the
    directory holds here at once.  ``known`` is the run's set of
    ``(key, message, signature)`` triples that verify: each signature the
    run made, with the signing key's verify half and the bytes it signed
    (RFC 8032 verification of such a triple can only pass), and each
    triple that passed an Ed25519 check here.  Each check resolves the key
    bound at its round first and looks up only that key's triple: a
    triple under an old key never vouches for a new one, and a signature
    not in the set is checked with Ed25519, and a failure reported, every
    time.  Ed25519 verify is pure, so the run's events and metrics are
    those of the plain directory.  Proof verifiers get
    ``Simulation.directory`` itself, which remembers nothing.
    """

    def __init__(self, directory: KeyDirectory, known: set[tuple[bytes, bytes, bytes]]):
        self._bindings = directory._bindings
        self._known = known

    def verify_signature(self, node_id: NodeId, round_no: int, message: bytes, signature: bytes) -> bool:
        key = self.key_at(node_id, round_no)
        if key is None:
            return False
        triple = (key, message, signature)
        if triple in self._known:
            return True
        if not Ed25519Scheme().verify(key, message, signature):
            return False
        self._known.add(triple)
        return True


@dataclass
class _Counters:
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    receipts_issued: int = 0
    receipts_received: int = 0
    equivocations_detected: int = 0


class Simulation:
    def __init__(
        self,
        topology: Topology,
        rounds: int,
        seed: int = 0,
        faults: Sequence = (),
        prune_anchors: bool = True,
        credential_issuers: Sequence[str] = (),
        audit_every: int = 0,
    ):
        validate_topology(topology)
        if rounds < 1:
            raise ValueError("need at least one round")
        self.topology = topology
        self.rounds = rounds
        self.seed = seed
        self.audit_every = audit_every
        self.directory = KeyDirectory()
        # Triples that verify: every signature the run makes, and every check that passed.
        self._signatures: set[tuple[bytes, bytes, bytes]] = set()
        # Every signature check inside the run goes through this view.
        self._verifier: KeyDirectory = _CheckedOnce(self.directory, self._signatures)
        self.nodes: dict[str, Node] = {}
        for label in topology.labels:
            keypair = keypair_from_seed(f"{seed}:{label}")
            self.nodes[label] = Node(label, keypair)
            self.directory.register(keypair.node_id, keypair.verify_key)
        self._label_of = {node.node_id: label for label, node in self.nodes.items()}
        for label, node in self.nodes.items():
            node.set_manifest(self.nodes[issuer].node_id for issuer in topology.issuers_of(label))
        # Pure anchors (no outbound links) can live on roots alone.
        self._prunable = tuple(
            label for label in topology.anchors if prune_anchors and not topology.issuers_of(label)
        )
        self.registries: dict[str, CredentialRegistry] = {
            label: CredentialRegistry(self.nodes[label]) for label in credential_issuers
        }
        self._equivocations: dict[str, Equivocate] = {}
        self._withholds: list[WithholdReceipt] = []
        self._history_forks: dict[tuple[str, int], ForkHistory] = {}
        for fault in faults:
            if isinstance(fault, Equivocate):
                if fault.node in self._equivocations:
                    raise ValueError(f"{fault.node} already equivocates")
                self._equivocations[fault.node] = fault
            elif isinstance(fault, WithholdReceipt):
                self._withholds.append(fault)
            elif isinstance(fault, ForkHistory):
                self._history_forks[(fault.node, fault.round)] = fault
            else:
                raise TypeError(f"unknown fault {fault!r}")
        self._shadows: dict[str, Node] = {}
        self.round = 0
        self.events: list[dict] = []
        # One row per node per round: its round, label, retained bytes and cumulative counters.
        self.metrics: list[dict] = []
        self._counters: dict[str, _Counters] = {label: _Counters() for label in topology.labels}
        self._scheduled: dict[tuple[int, str], list[Callable[["Simulation"], None]]] = {}
        # Submissions sent in round r, acknowledged in round r+1.
        self._awaiting_receipt: dict[tuple[str, str], Submission] = {}
        self._submitted_this_round: dict[tuple[str, str], Submission] = {}
        # Gossip: what each node learned last round, to forward this round.
        self._outbox_prev: dict[str, list[tuple[str, Commitment]]] = {label: [] for label in topology.labels}
        self._outbox_cur: dict[str, list[tuple[str, Commitment]]] = {label: [] for label in topology.labels}
        self.views: dict[str, dict[str, dict[int, Commitment]]] = {
            label: {anchor: {} for anchor in topology.anchors} for label in topology.labels
        }
        # Every signed (node, round) -> root claim a node has verified.
        self._claims: dict[str, dict[tuple[NodeId, int], Digest]] = {label: {} for label in topology.labels}
        self._reported: set[tuple[str, NodeId, int]] = set()
        # Each node's last passing chain-audit head, where its next audit starts.
        self._audited: dict[str, int] = {}

    # -- scheduling ------------------------------------------------------

    def at(self, round_no: int, fn: Callable[["Simulation"], None], phase: str = "pre") -> None:
        if phase not in ("pre", "post"):
            raise ValueError("phase must be 'pre' or 'post'")
        self._scheduled.setdefault((round_no, phase), []).append(fn)

    def registry(self, label: str) -> CredentialRegistry:
        return self.registries[label]

    # -- events and accounting -------------------------------------------

    def _event(self, type_: str, **fields) -> None:
        self.events.append({"round": self.round, "type": type_, **fields})

    def _send(self, sender: str, receiver: str, n_bytes: int) -> None:
        cs, cr = self._counters[sender], self._counters[receiver]
        cs.bytes_sent += n_bytes
        cs.messages_sent += 1
        cr.bytes_received += n_bytes
        cr.messages_received += 1

    def _observe_claim(self, observer: str, subject: NodeId, round_no: int, root: Digest, source: str) -> None:
        claims = self._claims[observer]
        key = (subject, round_no)
        prior = claims.get(key)
        if prior is None:
            claims[key] = root
            return
        if prior == root:
            return
        report_key = (observer, subject, round_no)
        if report_key in self._reported:
            return
        self._reported.add(report_key)
        self._counters[observer].equivocations_detected += 1
        self._event(
            "EquivocationDetected",
            observer=observer,
            offender=self._label_of.get(subject, subject.hex()),
            offender_round=round_no,
            detected_round=self.round,
            source=source,
        )

    # -- phases ----------------------------------------------------------

    def run(self) -> "Simulation":
        while self.round < self.rounds:
            self._run_round()
        self._finalize()
        return self

    def _payload(self, label: str, round_no: int, forked: bool = False) -> Expr:
        base: tuple = ("data", label, round_no)
        return base + ("forked",) if forked else base

    def _learn_signed(self, keypair: KeyPair, signed: Commitment | Submission) -> None:
        """Remember that ``keypair`` signed ``signed``: its message, exactly the bytes signed."""
        self._signatures.add((keypair.verify_key, signed.message(), signed.signature))

    def _build_kwargs(self, label: str) -> dict:
        registry = self.registries.get(label)
        if registry is None:
            return {}
        return {"credentials": registry.take_pending(), "revocation": registry.revocation_list()}

    def _run_round(self) -> None:
        r = self.round
        for fn in self._scheduled.get((r, "pre"), ()):
            fn(self)
        self._phase_build(r)
        self._phase_audit_and_prune(r)
        self._phase_submit(r)
        self._phase_receipts(r)
        self._phase_forward(r)
        self._phase_gossip(r)
        for fn in self._scheduled.get((r, "post"), ()):
            fn(self)
        self._phase_chain_audit(r)
        self._phase_metrics(r)
        self.round += 1

    def _phase_build(self, r: int) -> None:
        for label in self.topology.labels:
            node = self.nodes[label]
            fork = self._history_forks.get((label, r))
            if fork is not None and r >= 1:
                self._rewrite_previous(node, r)
                self._event("HistoryForked", node=label, rewritten_round=r - 1)
            eq = self._equivocations.get(label)
            equivocating = eq is not None and r >= eq.start_round
            if equivocating and r == eq.start_round:
                shadow = Node(label, node.keypair)
                shadow.records, shadow.retained_bytes = list(node.records), node.retained_bytes
                shadow.manifest = node.manifest
                self._shadows[label] = shadow
                self._event("EquivocationStarted", node=label, fork_targets=list(eq.fork_targets))
            # Snapshot queued submissions before build clears them: the fork
            # must entangle exactly the same inbound roots as the real tree.
            pending_subs = dict(node._pending_submissions) if equivocating else None
            record = node.build(self._payload(label, r), **self._build_kwargs(label))
            self._learn_signed(node.keypair, record.commitment)
            if equivocating:
                shadow = self._shadows[label]
                shadow._pending_submissions = pending_subs
                shadow._pending_receipts = {}
                record = shadow.build(self._payload(label, r, forked=True))
                self._learn_signed(shadow.keypair, record.commitment)

    def _rewrite_previous(self, node: Node, r: int) -> None:
        old = node.record_at(r - 1)
        if old.state is None:
            raise ValueError("cannot rewrite a pruned round")
        state = dataclasses.replace(old.state, payload=self._payload(node.label, r - 1, forked=True))
        keypair = node.keypair_at(r - 1)
        tree, commitment = build_round(state, keypair)
        self._learn_signed(keypair, commitment)
        node.replace_record(r - 1, NodeRecord(commitment=commitment, state=state, tree=tree))

    @staticmethod
    def rounds_until_final(faults: Sequence, label: str, round_no: int) -> int:
        """How many rounds a run with ``faults`` makes before ``label``'s record
        ``round_no`` is final: round_no + 1, or round_no + 2 when a ``ForkHistory``
        on ``label`` at round_no + 1 replaces it (``_rewrite_previous``).  No other
        fault or phase changes a built record, or a receipt once it is logged."""
        rewritten = ForkHistory(node=label, round=round_no + 1) in faults
        return round_no + 2 if rewritten else round_no + 1

    def _audit(self, label: str, start: int) -> Verdict:
        """The chain rule over the links of the node's unpruned records from round
        ``start`` on, from the commitment before them (pruned records are a prefix
        and keep theirs).  No record below a passed head is replaced
        (``ForkHistory`` rewrites round r - 1 while r is built), so this is a whole walk's verdict."""
        records = self.nodes[label].records
        first = max(start, 1)
        while first < len(records) and records[first].link is None:
            first += 1
        if first >= len(records):
            return Verdict.passed()
        commitments = tuple([record.commitment for record in records[first - 1 :]])
        chain = HolderChain(commitments, tuple([record.link for record in records[first:]]))
        return verify_chain_entries(chain, self._verifier)

    def _phase_audit_and_prune(self, r: int) -> None:
        if r < 1:
            return
        for label in self.topology.labels:
            verdict = self._audit(label, r - 1)
            if not verdict:
                self._event("SelfAuditFailed", node=label, reason=verdict.reason)
        # Rounds below r-1 were pruned in earlier rounds.
        for label in self._prunable:
            self.nodes[label].prune_record(r - 1)

    def _phase_submit(self, r: int) -> None:
        self._submitted_this_round = {}
        signed: dict[str, Submission] = {}  # one per holder, handed to each of its issuers
        for holder, issuer in self.topology.links:
            sub = signed.get(holder)
            if sub is None:
                node = self.nodes[holder]
                sub = signed[holder] = node.make_submission()
                self._learn_signed(node.keypair, sub)
            payload = sub.to_bytes()
            self._send(holder, issuer, len(payload))
            verdict = self.nodes[issuer].receive_submission(sub, self._verifier)
            if not verdict:
                self._event("SubmissionRejected", holder=holder, issuer=issuer, reason=verdict.reason)
                continue
            self._submitted_this_round[(holder, issuer)] = sub

    def _issuing_node(self, issuer: str, holder: str) -> Node:
        eq = self._equivocations.get(issuer)
        if eq is not None and issuer in self._shadows and holder in eq.fork_targets:
            return self._shadows[issuer]
        return self.nodes[issuer]

    def _phase_receipts(self, r: int) -> None:
        delivered: set[tuple[str, str]] = set()
        for (holder, issuer), sub in self._awaiting_receipt.items():
            if any(w.node == issuer and w.victim == holder and w.active(r) for w in self._withholds):
                self._event("ReceiptWithheld", issuer=issuer, holder=holder, submission_round=sub.holder_round)
                continue
            try:
                receipt = self._issuing_node(issuer, holder).issue_receipt(sub)
            except StaleSubmissionError:
                self._event("SubmissionExpired", issuer=issuer, holder=holder, submission_round=sub.holder_round)
                continue
            self._counters[issuer].receipts_issued += 1
            self._send(issuer, holder, len(receipt.to_bytes()))
            verdict = self.nodes[holder].receive_receipt(receipt, self._verifier)
            if not verdict:
                self._event(
                    "ReceiptRejected",
                    holder=holder,
                    issuer=issuer,
                    reason=verdict.reason,
                    detail=verdict.detail,
                )
                continue
            delivered.add((holder, issuer))
            self._counters[holder].receipts_received += 1
            c = receipt.issuer_commitment
            self._observe_claim(holder, c.node_id, c.round, c.root, source="receipt")
        for key in self._awaiting_receipt:
            if key not in delivered:
                holder, issuer = key
                self._event("ReceiptMissing", holder=holder, issuer=issuer, round=r)
        self._awaiting_receipt = self._submitted_this_round

    def _phase_forward(self, r: int) -> None:
        if r < 1:
            return
        for label in self.topology.labels:
            downstream = self.topology.holders_of(label)
            if not downstream:
                continue
            for receipt in self.nodes[label].record_at(r).state.evidence:
                payload_len = len(receipt.to_bytes())
                for target in downstream:
                    self._send(label, target, payload_len)
                    self._ingest_forward(target, receipt)

    def _ingest_forward(self, observer: str, receipt: Receipt) -> None:
        c = receipt.issuer_commitment
        sub = receipt.submission
        if not self._verifier.verify_submission(sub):
            self._event("ForwardRejected", observer=observer, reason="BadSignature")
            return
        verdict = check_receipt(receipt, self._verifier)
        if not verdict:
            self._event("ForwardRejected", observer=observer, reason=verdict.reason)
            return
        # Two independent signed claims ride in every forwarded receipt.
        self._observe_claim(observer, sub.holder_id, sub.holder_round, sub.holder_root, source="forward")
        self._observe_claim(observer, c.node_id, c.round, c.root, source="forward")

    def _phase_gossip(self, r: int) -> None:
        if not self.topology.anchors:
            return
        for anchor in self.topology.anchors:
            commitment = self.nodes[anchor].record_at(r).commitment
            view = self.views[anchor][anchor]
            if r not in view:
                view[r] = commitment
                self._outbox_cur[anchor].append((anchor, commitment))
        for label in self.topology.labels:
            for anchor, commitment in self._outbox_prev[label]:
                payload_len = len(commitment.to_bytes())
                for neighbor in self.topology.neighbors(label):
                    self._send(label, neighbor, payload_len)
                    view = self.views[neighbor][anchor]
                    if commitment.round in view:
                        continue
                    if not self._verifier.verify_commitment(commitment):
                        self._event("GossipRejected", observer=neighbor, reason="BadSignature")
                        continue
                    view[commitment.round] = commitment
                    self._outbox_cur[neighbor].append((anchor, commitment))
                    self._observe_claim(neighbor, commitment.node_id, commitment.round, commitment.root, source="gossip")
        self._outbox_prev = self._outbox_cur
        self._outbox_cur = {label: [] for label in self.topology.labels}

    def _phase_chain_audit(self, r: int) -> None:
        if not self.audit_every or r == 0 or r % self.audit_every:
            return
        for label in self.topology.labels:
            verdict = self._audit(label, self._audited.get(label, 0))
            if verdict:
                self._audited[label] = r
            else:
                self._event("ChainAuditFailed", node=label, reason=verdict.reason)

    def _phase_metrics(self, r: int) -> None:
        for label in self.topology.labels:
            row = {"round": r, "node": label, "retained_bytes": self.retained_bytes(label)}
            self.metrics.append({**row, **vars(self._counters[label])})

    def _finalize(self) -> None:
        # Archival state for pure anchors: every round down to root + commitment.
        for label in self._prunable:
            node = self.nodes[label]
            for record in node.records:
                if record.state is not None:
                    node.prune_record(record.round)

    # -- inspection --------------------------------------------------------

    def retained_bytes(self, label: str) -> int:
        return self.nodes[label].retained_bytes

    def records_by_id(self) -> dict[NodeId, list[NodeRecord]]:
        return {node.node_id: node.records for node in self.nodes.values()}

    def receipts_by_id(self) -> dict[NodeId, Mapping[tuple[NodeId, int], Receipt]]:
        return {node.node_id: node.receipt_log for node in self.nodes.values()}

    def path_to_anchor(self, label: str) -> list[str]:
        """``Topology.path_to_anchor`` of the run's topology."""
        return self.topology.path_to_anchor(label)

    def detected(self, offender: str) -> list[dict]:
        return [e for e in self.events if e["type"] == "EquivocationDetected" and e["offender"] == offender]

    def metrics_rows(self) -> list[dict]:
        return self.metrics

    def total_bytes_sent(self) -> int:
        return sum(c.bytes_sent for c in self._counters.values())


_MAX_LATENCY = 16


def measure_latency(sim: Simulation, holder: str, probe_round: int) -> Optional[int]:
    """Smallest k <= _MAX_LATENCY for which the holder's probe-round state
    verifies against an anchor commitment at probe_round + k.  Equals the
    hop count to the anchor: entanglement moves one hop per round, no
    faster."""
    path = sim.path_to_anchor(holder)
    if len(path) < 2:
        raise ValueError(f"{holder} is its own anchor")
    ids = [sim.nodes[label].node_id for label in path]
    proof = build_chain_proof(sim.records_by_id(), sim.receipts_by_id(), ids, probe_round, 1)
    anchor_records = sim.nodes[path[-1]].records
    for k in range(1, _MAX_LATENCY + 1):
        trusted = {
            record.round: record.commitment for record in anchor_records if record.round <= probe_round + k
        }
        if verify_chain(proof, trusted, sim.directory):
            return k
    return None
