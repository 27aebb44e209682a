"""Cross-node entanglement: receipts and the proofs built from them.

Timing model.  A root committed at round r is submitted during round r,
entangled as a leaf of each partner's round r+1 tree, acknowledged by a
receipt issued with that tree, and the receipt is retained as an evidence
leaf in the holder's round r+2 tree.  The pipeline is fully parallel: no
node ever waits on a same-round artifact of another node, which is what
makes mutual (cyclic) entanglement graphs possible.

Proof vocabulary:

* ``LinkProof``   -- one holder/issuer relationship over a round window.
* ``HubProof``    -- every link in the holder's committed manifest; omitting
  any committed link is detected (ManifestMismatch).
* ``ChainProof``  -- composed links hop by hop toward a trust anchor; hop
  windows shift forward one round per hop, so a holder state at round r
  verifies only against an anchor commitment at round >= r + hops.
* ``RootPath``    -- a bare digest path showing one root is transitively
  committed by a later tree, with no receipt evidence involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .hashtree import Digest, InclusionProof, fold_root
from .keys import NodeId
from .node import (
    ChainEntry,
    Commitment,
    KeyDirectory,
    NodeRecord,
    Receipt,
    Submission,
    Verdict,
    _manifest_leaf,
    chain_entry_for,
    check_receipt,
    commitment_digest,
    MANIFEST_LEAF_INDEX,
    LEAF_PREV,
    MAX_COMMITMENT,
    evidence_leaf_index,
    verify_chain_entries,
)
from .wire import MAX_ITEMS, MAX_RECORD, Reader, WireError, Writer, decode, encode_inclusion_proof, read_inclusion_proof

__all__ = [
    "ChainProof",
    "HubProof",
    "LinkProof",
    "MissingReceiptError",
    "PathStep",
    "RootPath",
    "build_chain_proof",
    "build_hub_proof",
    "build_link_proof",
    "build_root_path",
    "decode_proof",
    "encode_proof",
    "verify_chain",
    "verify_hub",
    "verify_link",
    "verify_root_path",
]

# How many rounds past the window end the holder chain must extend: +1 for
# the issuer-side inclusion, +1 for evidence retention.
EVIDENCE_LAG = 2

# Bytes of one link blob inside a hub or chain proof (docs/FORMATS.md).
MAX_LINK = 1 << 24


class MissingReceiptError(ValueError):
    def __init__(self, issuer_id: NodeId, round_no: int):
        super().__init__(f"no receipt from {issuer_id.hex()} for round {round_no}")
        self.issuer_id = issuer_id
        self.round = round_no


@dataclass(frozen=True)
class LinkProof:
    """Evidence for one periodic link over holder rounds [start, end]."""

    holder_id: NodeId
    issuer_id: NodeId
    window_start: int
    window_end: int
    holder_chain: tuple[ChainEntry, ...]  # rounds start .. end + EVIDENCE_LAG
    receipts: tuple[Receipt, ...]  # one per window round
    evidence_proofs: tuple[InclusionProof, ...]  # receipt leaf in holder tree r+2

    @property
    def rounds(self) -> range:
        return range(self.window_start, self.window_end + 1)

    def holder_commitments(self) -> dict[int, Commitment]:
        return {entry.commitment.round: entry.commitment for entry in self.holder_chain}

    def to_bytes(self) -> bytes:
        w = Writer()
        w.digest(self.holder_id).digest(self.issuer_id)
        w.u64(self.window_start).u64(self.window_end)
        w.blobs([entry.to_bytes() for entry in self.holder_chain])
        w.u32(len(self.receipts))
        for receipt, proof in zip(self.receipts, self.evidence_proofs):
            w.blob(receipt.to_bytes())
            w.blob(encode_inclusion_proof(proof))
        return w.getvalue()

    @staticmethod
    def read(r: Reader) -> "LinkProof":
        holder_id = r.digest()
        issuer_id = r.digest()
        start = r.u64()
        end = r.u64()
        chain = r.many(lambda r: r.nested(ChainEntry.read, MAX_RECORD), "holder chain entries", MAX_ITEMS)
        evidence = r.many(_read_evidence, "window rounds", MAX_ITEMS)
        return LinkProof(
            holder_id=holder_id,
            issuer_id=issuer_id,
            window_start=start,
            window_end=end,
            holder_chain=chain,
            receipts=tuple(receipt for receipt, _ in evidence),
            evidence_proofs=tuple(proof for _, proof in evidence),
        )


def _read_evidence(r: Reader) -> tuple[Receipt, InclusionProof]:
    # One window round: the receipt, then its evidence-leaf proof.
    return r.nested(Receipt.read, MAX_RECORD), r.nested(read_inclusion_proof, MAX_RECORD)


def _read_link(r: Reader) -> LinkProof:
    return r.nested(LinkProof.read, MAX_LINK)


def build_link_proof(
    holder_records: Sequence[NodeRecord],
    issuer_id: NodeId,
    window: tuple[int, int],
    receipts: Mapping[tuple[NodeId, int], Receipt],
) -> LinkProof:
    start, end = window
    if start > end or start < 0:
        raise ValueError(f"bad window {window}")
    if end + EVIDENCE_LAG >= len(holder_records):
        raise ValueError(
            f"window {window} needs holder rounds up to {end + EVIDENCE_LAG}, "
            f"but only {len(holder_records)} rounds exist"
        )
    holder_id = holder_records[start].commitment.node_id
    chain = tuple(chain_entry_for(holder_records[r]) for r in range(start, end + EVIDENCE_LAG + 1))
    window_receipts = []
    evidence = []
    for r in range(start, end + 1):
        receipt = receipts.get((issuer_id, r))
        if receipt is None:
            raise MissingReceiptError(issuer_id, r)
        window_receipts.append(receipt)
        retaining = holder_records[r + EVIDENCE_LAG]
        if retaining.state is None or retaining.tree is None:
            raise ValueError(f"holder round {r + EVIDENCE_LAG} was pruned")
        index = evidence_leaf_index(retaining.state, issuer_id, r)
        evidence.append(retaining.tree.prove_inclusion(index))
    return LinkProof(
        holder_id=holder_id,
        issuer_id=issuer_id,
        window_start=start,
        window_end=end,
        holder_chain=chain,
        receipts=tuple(window_receipts),
        evidence_proofs=tuple(evidence),
    )


def verify_link(proof: LinkProof, trusted: Mapping[int, Commitment], directory: KeyDirectory) -> Verdict:
    """Check one link against trusted issuer commitments.

    ``trusted`` maps issuer rounds to commitments the verifier already
    believes (from gossip, an anchor, or an enclosing chain hop).
    """
    s, e = proof.window_start, proof.window_end
    if s > e:
        return Verdict.failed("WindowInvalid", f"window [{s}, {e}]")
    if len(proof.holder_chain) != e - s + 1 + EVIDENCE_LAG:
        return Verdict.failed("WindowInvalid", "holder chain does not cover the window")
    if len(proof.receipts) != e - s + 1 or len(proof.evidence_proofs) != e - s + 1:
        return Verdict.failed("WindowInvalid", "one receipt and evidence proof per round required")
    for offset, entry in enumerate(proof.holder_chain):
        if entry.commitment.node_id != proof.holder_id:
            return Verdict.failed("HolderMismatch", "chain entry from another node")
        if entry.commitment.round != s + offset:
            return Verdict.failed("RoundGap", "chain entry out of place")
    chain_verdict = verify_chain_entries(proof.holder_chain, directory)
    if not chain_verdict:
        return chain_verdict
    commitments = {entry.commitment.round: entry.commitment for entry in proof.holder_chain}
    previous_receipt: Optional[Receipt] = None
    for r, receipt, ev_proof in zip(proof.rounds, proof.receipts, proof.evidence_proofs):
        issuer_c = receipt.issuer_commitment
        if receipt.holder_id != proof.holder_id or receipt.holder_round != r:
            return Verdict.failed("ReceiptMismatch", f"receipt is not for holder round {r}")
        if issuer_c.node_id != proof.issuer_id:
            return Verdict.failed("ReceiptMismatch", "receipt from another issuer")
        if issuer_c.round != r + 1:
            return Verdict.failed("ReceiptMismatch", f"receipt round {issuer_c.round}, expected {r + 1}")
        anchor = trusted.get(r + 1)
        if anchor is None:
            return Verdict.failed("TrustedRootUnavailable", f"no trusted issuer commitment for round {r + 1}")
        if anchor != issuer_c:
            return Verdict.failed("TrustMismatch", f"issuer commitment for round {r + 1} disagrees")
        if receipt.holder_root != commitments[r].root:
            return Verdict.failed("ReceiptMismatch", f"receipt attests a different round-{r} root")
        if not directory.verify_submission(receipt.submission()):
            return Verdict.failed("BadSignature", f"holder signature in receipt for round {r}")
        verdict = check_receipt(receipt, directory)
        if not verdict:
            return Verdict.failed(verdict.reason, f"{verdict.detail} for round {r}")
        if previous_receipt is not None:
            if receipt.prev_digest != commitment_digest(previous_receipt.issuer_commitment):
                return Verdict.failed("ChainBreak", f"issuer chain breaks before round {r + 1}")
        if not commitments[r + EVIDENCE_LAG].proves(receipt.leaf_bytes(), ev_proof):
            return Verdict.failed("EvidenceInvalid", f"receipt for round {r} not retained in round {r + EVIDENCE_LAG}")
        previous_receipt = receipt
    return Verdict.passed()


@dataclass(frozen=True)
class HubProof:
    """All of a holder's committed links over one window."""

    holder_id: NodeId
    window_start: int
    window_end: int
    manifest: tuple[NodeId, ...]
    manifest_proofs: tuple[InclusionProof, ...]  # manifest leaf, one per window round
    links: tuple[LinkProof, ...]

    def to_bytes(self) -> bytes:
        w = Writer()
        w.digest(self.holder_id).u64(self.window_start).u64(self.window_end)
        w.digests(self.manifest)
        w.blobs([encode_inclusion_proof(proof) for proof in self.manifest_proofs])
        w.blobs([link.to_bytes() for link in self.links])
        return w.getvalue()

    @staticmethod
    def read(r: Reader) -> "HubProof":
        return HubProof(
            holder_id=r.digest(),
            window_start=r.u64(),
            window_end=r.u64(),
            manifest=r.many(Reader.digest, "manifest ids", MAX_ITEMS),
            manifest_proofs=r.many(lambda r: r.nested(read_inclusion_proof, MAX_RECORD), "manifest proofs", MAX_ITEMS),
            links=r.many(_read_link, "links", MAX_ITEMS),
        )


def build_hub_proof(
    holder_records: Sequence[NodeRecord],
    window: tuple[int, int],
    receipts: Mapping[tuple[NodeId, int], Receipt],
) -> HubProof:
    start, end = window
    first = holder_records[start]
    if first.state is None:
        raise ValueError(f"holder round {start} was pruned")
    manifest = first.state.manifest
    proofs = []
    for r in range(start, end + 1):
        record = holder_records[r]
        if record.state is None or record.tree is None:
            raise ValueError(f"holder round {r} was pruned")
        if record.state.manifest != manifest:
            raise ValueError(f"manifest changed inside window at round {r}")
        proofs.append(record.tree.prove_inclusion(MANIFEST_LEAF_INDEX))
    links = tuple(
        build_link_proof(holder_records, issuer_id, window, receipts) for issuer_id in manifest
    )
    return HubProof(
        holder_id=first.commitment.node_id,
        window_start=start,
        window_end=end,
        manifest=manifest,
        manifest_proofs=tuple(proofs),
        links=links,
    )


def verify_hub(
    proof: HubProof,
    trusted: Mapping[NodeId, Mapping[int, Commitment]],
    directory: KeyDirectory,
) -> Verdict:
    """Check completeness: every committed link present and verifying.

    ``trusted`` maps each issuer id to that issuer's trusted commitments.
    """
    s, e = proof.window_start, proof.window_end
    if s > e:
        return Verdict.failed("WindowInvalid", f"window [{s}, {e}]")
    if len(proof.manifest_proofs) != e - s + 1:
        return Verdict.failed("WindowInvalid", "one manifest proof per round required")
    if tuple(sorted(proof.manifest)) != proof.manifest or len(set(proof.manifest)) != len(proof.manifest):
        return Verdict.failed("ManifestMismatch", "manifest not in canonical order")
    link_issuers = tuple(sorted(link.issuer_id for link in proof.links))
    if link_issuers != proof.manifest:
        return Verdict.failed("ManifestMismatch", "presented links do not match the committed manifest")
    if not proof.links:
        return Verdict.failed("ManifestMismatch", "no links presented")
    reference_chain = proof.links[0].holder_chain
    for link in proof.links:
        if link.holder_id != proof.holder_id:
            return Verdict.failed("LinkFailed", "link for another holder")
        if (link.window_start, link.window_end) != (s, e):
            return Verdict.failed("LinkFailed", "link window differs from hub window")
        if link.holder_chain != reference_chain:
            return Verdict.failed("LinkFailed", "links disagree about the holder chain")
        issuer_trust = trusted.get(link.issuer_id)
        if issuer_trust is None:
            return Verdict.failed("TrustedRootUnavailable", f"no trusted commitments for {link.issuer_id.hex()}")
        verdict = verify_link(link, issuer_trust, directory)
        if not verdict:
            return Verdict.failed("LinkFailed", f"{link.issuer_id.hex()}: {verdict.reason}")
    manifest_leaf = _manifest_leaf(proof.manifest)
    commitments = proof.links[0].holder_commitments()
    for r, m_proof in zip(range(s, e + 1), proof.manifest_proofs):
        if m_proof.leaf_index != MANIFEST_LEAF_INDEX or m_proof.tree_size != commitments[r].leaf_count:
            return Verdict.failed("ManifestMismatch", f"manifest proof at wrong position for round {r}")
        if not commitments[r].proves(manifest_leaf, m_proof):
            return Verdict.failed("ManifestMismatch", f"committed manifest differs at round {r}")
    return Verdict.passed()


@dataclass(frozen=True)
class ChainProof:
    """Composed links from a holder to a trust anchor.

    Hop i covers holder rounds shifted i ahead of hop 0, matching the one
    round it takes each tree to be entangled upstream.
    """

    hops: tuple[LinkProof, ...]
    anchor_commitment: Commitment

    @property
    def holder_id(self) -> NodeId:
        return self.hops[0].holder_id

    @property
    def anchor_id(self) -> NodeId:
        return self.hops[-1].issuer_id

    def to_bytes(self) -> bytes:
        w = Writer()
        w.blobs([hop.to_bytes() for hop in self.hops])
        w.blob(self.anchor_commitment.to_bytes())
        return w.getvalue()

    @staticmethod
    def read(r: Reader) -> "ChainProof":
        hops = r.many(_read_link, "hops", MAX_ITEMS)
        if not hops:
            raise WireError("a chain proof needs at least one hop")
        return ChainProof(hops=hops, anchor_commitment=r.nested(Commitment.read, MAX_COMMITMENT))


def build_chain_proof(
    records_by_id: Mapping[NodeId, Sequence[NodeRecord]],
    receipts_by_id: Mapping[NodeId, Mapping[tuple[NodeId, int], Receipt]],
    path: Sequence[NodeId],
    start_round: int,
    window_len: int = 1,
) -> ChainProof:
    """Compose a chain along ``path`` (holder first, anchor last)."""
    if len(path) < 2:
        raise ValueError("a chain needs at least one hop")
    hops = []
    for i, (holder, issuer) in enumerate(zip(path, path[1:])):
        window = (start_round + i, start_round + i + window_len - 1)
        hops.append(build_link_proof(records_by_id[holder], issuer, window, receipts_by_id[holder]))
    final_receipt_round = hops[-1].window_end + 1
    anchor_records = records_by_id[path[-1]]
    if final_receipt_round >= len(anchor_records):
        raise ValueError("anchor has not committed the final receipt round yet")
    return ChainProof(hops=tuple(hops), anchor_commitment=anchor_records[final_receipt_round].commitment)


def verify_chain(proof: ChainProof, trusted_anchor: Mapping[int, Commitment], directory: KeyDirectory) -> Verdict:
    """Check a chain against the anchor's trusted commitments only.

    Inner hops need no independent trust: hop i's issuer commitments are
    vouched for by hop i+1's verified holder chain.  Reasons: BrokenHop,
    AnchorMismatch, InsufficientLatency.
    """
    if not proof.hops:
        return Verdict.failed("BrokenHop", "no hops")
    base = proof.hops[0]
    for i, hop in enumerate(proof.hops):
        if (hop.window_start, hop.window_end) != (base.window_start + i, base.window_end + i):
            return Verdict.failed("BrokenHop", f"hop {i} window does not shift by one round per hop")
        if i + 1 < len(proof.hops) and hop.issuer_id != proof.hops[i + 1].holder_id:
            return Verdict.failed("BrokenHop", f"hop {i} issuer is not hop {i + 1} holder")
    last = proof.hops[-1]
    if proof.anchor_commitment.node_id != last.issuer_id:
        return Verdict.failed("AnchorMismatch", "anchor commitment is not from the final issuer")
    expected_round = last.window_end + 1
    if proof.anchor_commitment.round != expected_round:
        return Verdict.failed("AnchorMismatch", f"anchor commitment round is not {expected_round}")
    known = trusted_anchor.get(expected_round)
    if known is None:
        return Verdict.failed(
            "InsufficientLatency",
            f"anchor round {expected_round} not yet trusted; chain of {len(proof.hops)} hops "
            f"needs an anchor commitment at round >= {base.window_start + len(proof.hops)}",
        )
    if known != proof.anchor_commitment:
        return Verdict.failed("AnchorMismatch", "anchor commitment disagrees with the trusted root")
    verdict = verify_link(last, trusted_anchor, directory)
    if not verdict:
        if verdict.reason == "TrustedRootUnavailable":
            return Verdict.failed("InsufficientLatency", verdict.detail)
        if verdict.reason == "TrustMismatch":
            return Verdict.failed("AnchorMismatch", verdict.detail)
        return Verdict.failed("BrokenHop", f"hop {len(proof.hops) - 1}: {verdict.reason}")
    for i in range(len(proof.hops) - 2, -1, -1):
        vouched = proof.hops[i + 1].holder_commitments()
        verdict = verify_link(proof.hops[i], vouched, directory)
        if not verdict:
            return Verdict.failed("BrokenHop", f"hop {i}: {verdict.reason}")
    return Verdict.passed()


@dataclass(frozen=True)
class PathStep:
    """One hop of a bare digest path.

    ``entangled``: the running root appears as a signed submission leaf in
    the next tree.  ``prev``: the running root is inside a commitment whose
    digest is the next tree's first leaf.
    """

    kind: str  # "entangled" | "prev"
    proof: InclusionProof
    submission: Optional[Submission] = None
    commitment: Optional[Commitment] = None


@dataclass(frozen=True)
class RootPath:
    start_id: NodeId
    start_round: int
    end_id: NodeId
    end_round: int
    steps: tuple[PathStep, ...]


def build_root_path(
    records_by_id: Mapping[NodeId, Sequence[NodeRecord]],
    start: tuple[NodeId, int],
    end: tuple[NodeId, int],
) -> Optional[RootPath]:
    """Breadth-first search for a digest path between two (node, round) points."""
    start_key, end_key = tuple(start), tuple(end)
    if start_key == end_key:
        return RootPath(start[0], start[1], end[0], end[1], ())
    # parent[(node, round)] = (previous key, step)
    parents: dict[tuple[NodeId, int], tuple[tuple[NodeId, int], PathStep]] = {}
    frontier = [start_key]
    seen = {start_key}
    while frontier and end_key not in parents:
        next_frontier = []
        for key in frontier:
            node_id, round_no = key
            for step_key, step in _extensions(records_by_id, node_id, round_no):
                if step_key in seen:
                    continue
                seen.add(step_key)
                parents[step_key] = (key, step)
                next_frontier.append(step_key)
        frontier = next_frontier
    if end_key not in parents:
        return None
    steps = []
    cursor = end_key
    while cursor != start_key:
        cursor, step = parents[cursor]
        steps.append(step)
    steps.reverse()
    return RootPath(start[0], start[1], end[0], end[1], tuple(steps))


def _extensions(records_by_id, node_id: NodeId, round_no: int):
    own = records_by_id.get(node_id, ())
    if round_no + 1 < len(own):
        record = own[round_no + 1]
        if record.state is not None and record.tree is not None:
            yield (node_id, round_no + 1), PathStep(
                kind="prev",
                proof=record.tree.prove_inclusion(0),
                commitment=own[round_no].commitment,
            )
    for other_id in sorted(records_by_id):
        if other_id == node_id:
            continue
        records = records_by_id[other_id]
        if round_no + 1 >= len(records):
            continue
        record = records[round_no + 1]
        if record.state is None or record.tree is None:
            continue
        for pos, sub in enumerate(record.state.entangled):
            if sub.holder_id == node_id and sub.holder_round == round_no:
                yield (other_id, round_no + 1), PathStep(
                    kind="entangled",
                    proof=record.tree.prove_inclusion(3 + pos),
                    submission=sub,
                )
                break


def verify_root_path(path: RootPath, start_root: Digest, end_root: Digest) -> bool:
    """Walk the digest path; True iff it transitively commits start in end."""
    current = start_root
    for step in path.steps:
        if step.kind == "entangled":
            if step.submission is None or step.submission.holder_root != current:
                return False
            implied = fold_root(step.submission.leaf_bytes(), step.proof)
        elif step.kind == "prev":
            if step.commitment is None or step.commitment.root != current:
                return False
            leaf = bytes([LEAF_PREV]) + commitment_digest(step.commitment)
            if step.proof.leaf_index != 0:
                return False
            implied = fold_root(leaf, step.proof)
        else:
            return False
        if implied is None:
            return False
        current = Digest(implied)
    return current == end_root


_PROOF_MAGIC = b"EMP1"
_PROOF_KINDS = {0x10: LinkProof, 0x11: HubProof, 0x12: ChainProof}


def encode_proof(proof: "LinkProof | HubProof | ChainProof") -> bytes:
    for kind, cls in _PROOF_KINDS.items():
        if isinstance(proof, cls):
            return _PROOF_MAGIC + bytes([kind]) + proof.to_bytes()
    raise TypeError(f"not a proof object: {proof!r}")


def decode_proof(data: bytes) -> "LinkProof | HubProof | ChainProof":
    if len(data) < 5 or data[:4] != _PROOF_MAGIC:
        raise WireError("not a proof file")
    cls = _PROOF_KINDS.get(data[4])
    if cls is None:
        raise WireError(f"unknown proof kind {data[4]:#x}")
    return decode(data[5:], cls.read)
