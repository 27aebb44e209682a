"""Cross-node entanglement: receipts and the proofs built from them.

Timing model.  A root committed at round r is submitted during round r,
entangled as a leaf of each partner's round r+1 tree, acknowledged by a
receipt issued with that tree, and the receipt is retained as an evidence
leaf in the holder's round r+2 tree.  The pipeline is fully parallel: no
node ever waits on a same-round artifact of another node, which is what
makes mutual (cyclic) entanglement graphs possible.

So a proof reads a bounded stretch of its holders' history.  A link or hub
proof over holder rounds [s, e] reads the holder's rounds s to
e + EVIDENCE_LAG (``last_holder_round``), whose last tree retains the
receipts for round e, and the holder's receipts for rounds s to e.  A chain
proof from round s over w-round windows is one link proof per hop: hop i
covers its holder's rounds [s + i, s + i + w - 1] (``hop_windows``), so the
last hop's holder is read furthest, to round s + hops - 1 + w - 1 + EVIDENCE_LAG.

Proof vocabulary:

* ``LinkProof``   -- one holder/issuer relationship over a round window.
* ``HubProof``    -- every link in the holder's committed manifest over one
  shared holder chain; omitting any committed link is detected
  (ManifestMismatch); one range proof per round proves its receipts retained.
* ``ChainProof``  -- composed links hop by hop toward a trust anchor; hop
  windows shift forward one round per hop, so a holder state at round r
  verifies only against an anchor commitment at round >= r + hops.
* ``RootPath``    -- a bare digest path showing one root is transitively
  committed by a later tree, with no receipt evidence involved.

A link or hub proof is its holder chain and its window rounds.  The holder
chain (``HolderChain``) is the holder's commitments and, for each after the
first, its link (``ChainLink``): the path of its first leaf, which the
verifier computes from the commitment before it.  Each ``WindowRound``
holds the holder's signature, each issuer's receipt paths (``ReceiptPaths``)
and the round's evidence proof.  A proof holds no whole receipt: the verifier rebuilds the
round's submission from its holder chain commitment and that signature,
checks the paths against its trusted issuer commitment, and joins the three
into the receipt's evidence leaf.  Each issuer's chain enters the proof
once, as the prev digest the window's first round writes for it: after
it, the verifier takes the digest of its trusted issuer commitment of the
round before, as an issuer's receipt links to the one before it.  Nor does
it name its holder or window:
its holder chain's first commitment gives the holder and first round, under
the chain's signed head, and the window holds one round per window round.
No proof record can be made in a shape its reader refuses or cannot make.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from .hashtree import Digest, InclusionProof, fold_root, fold_sizes, leaf_hash, verify_inclusion
from .keys import NodeId
from .node import (
    Commitment,
    HolderChain,
    InvariantViolationError,
    KeyDirectory,
    NodeRecord,
    Receipt,
    ReceiptPaths,
    Submission,
    Verdict,
    MAX_SIGNATURE,
    NO_HOLDER_OR_WINDOW,
    _check_receipt_inclusions,
    _manifest_leaf,
    commitment_digest,
    evidence_leaf,
    prev_leaf_hash,
    receipt_key,
    receipt_paths,
    submission_of,
    verify_chain_head,
    verify_chain_links,
    FIXED_LEAVES,
    MANIFEST_LEAF_INDEX,
    NotEntangledError,
    entangled_leaf_index,
    evidence_leaf_index,
)
from .wire import (
    MAX_ITEMS,
    Reader,
    WireError,
    at_leaf,
    decode,
    digest,
    digests,
    encode_inclusion_proof,
    prefix,
    read_inclusion_proof,
)

__all__ = [
    "ChainProof",
    "HubProof",
    "LinkProof",
    "MissingReceiptError",
    "PathStep",
    "RootPath",
    "WindowRound",
    "build_chain_proof",
    "build_hub_proof",
    "build_link_proof",
    "build_root_path",
    "decode_proof",
    "encode_proof",
    "hop_windows",
    "last_holder_round",
    "verify_chain",
    "verify_hub",
    "verify_link",
    "verify_root_path",
]

# How many rounds past the window end the holder chain must extend: +1 for
# the issuer-side inclusion, +1 for evidence retention.
EVIDENCE_LAG = 2


class MissingReceiptError(ValueError):
    def __init__(self, issuer_id: NodeId, round_no: int):
        super().__init__(f"no receipt from {issuer_id.hex()} for round {round_no}")
        self.issuer_id = issuer_id
        self.round = round_no


class WindowRound(NamedTuple):
    """One window round r of a link or hub proof: the holder's signature on
    the submission of holder chain commitment r, each issuer's receipt paths
    in manifest order, the proof that their evidence leaves are one run in
    the holder's round r + EVIDENCE_LAG tree and, in the window's first
    round only, each issuer's prev digest in manifest order.  A tuple: one
    per round."""

    signature: bytes
    receipts: tuple[ReceiptPaths, ...]
    evidence_proof: InclusionProof
    prev_digests: tuple[Digest, ...] = ()


def _rounds_bytes(rounds: Sequence[WindowRound]) -> list[bytes]:
    """A u32 count, then per round the signature blob, the prev digests (in
    the first round), the receipts' paths and the evidence proof: the parts,
    for one join."""
    parts = [prefix(len(rounds))]
    for signature, receipts, evidence, prev_digests in rounds:
        parts += (prefix(len(signature)), signature, *map(digest, prev_digests), *[paths._encoding for paths in receipts])
        parts.append(encode_inclusion_proof(evidence))
    return parts


def _read_rounds(r: Reader, issuers: int) -> tuple[WindowRound, ...]:
    """What ``_rounds_bytes`` writes, ``issuers`` receipts to a round and
    as many prev digests to the first."""
    written = issuers

    def read_round(r: Reader) -> WindowRound:
        nonlocal written
        signature, prev_digests, written = r.blob(MAX_SIGNATURE), tuple([r.digest() for _ in range(written)]), 0
        receipts = tuple([ReceiptPaths.read(r) for _ in range(issuers)])
        return WindowRound(signature, receipts, read_inclusion_proof(r), prev_digests)

    return r.many(read_round, "window rounds", MAX_ITEMS)


_prev_digests = attrgetter("prev_digests")


class _Held:
    """The holder and window of a link or hub proof, read from its holder
    chain: the first commitment's node and round, and one round per window round."""

    @property
    def holder_id(self) -> NodeId:
        return self.holder_chain.commitments[0].node_id

    @property
    def window_start(self) -> int:
        return self.holder_chain.commitments[0].round

    @property
    def window_end(self) -> int:
        return self.window_start + len(self.rounds) - 1

    def _refuse_shapes(self, issuers: int) -> None:
        """Refuse a proof of ``issuers`` issuers with no window round, or
        with prev digests other than one per issuer in its first round."""
        rounds = self.rounds
        if not rounds:
            raise WireError(NO_HOLDER_OR_WINDOW)
        if len(rounds[0].prev_digests) != issuers or any(map(_prev_digests, rounds[1:])):
            raise WireError("a proof holds each issuer's prev digest in its first window round only")


@dataclass(frozen=True)
class LinkProof(_Held):
    """Evidence for one periodic link over holder rounds [start, end]."""

    issuer_id: NodeId
    holder_chain: HolderChain  # rounds start .. end + EVIDENCE_LAG
    rounds: tuple[WindowRound, ...]  # one per window round, each with the issuer's receipt paths

    def __post_init__(self) -> None:
        self._refuse_shapes(1)
        if any(len(rnd.receipts) != 1 for rnd in self.rounds):
            raise WireError("a link proof round holds one receipt's paths")

    def to_bytes(self) -> bytes:
        return b"".join([digest(self.issuer_id), *self.holder_chain.parts(), *_rounds_bytes(self.rounds)])

    @staticmethod
    def read(r: Reader) -> "LinkProof":
        return LinkProof(r.digest(), HolderChain.read(r), _read_rounds(r, 1))


_ByRound = Mapping[int, Commitment]  # a node's commitments by round


def _by_round(chain: Sequence[Commitment]) -> dict[int, Commitment]:
    return {c.round: c for c in chain}


def last_holder_round(window: tuple[int, int]) -> int:
    """The last holder round a link or hub proof over ``window`` reads: the
    one whose tree retains the receipts for the window's last round."""
    return window[1] + EVIDENCE_LAG


def hop_windows(start_round: int, window_len: int, hops: int) -> list[tuple[int, int]]:
    """The windows of a chain proof's hops, each one round on from the last."""
    return [(start_round + i, start_round + i + window_len - 1) for i in range(hops)]


def _holder_chain(holder_records: Sequence[NodeRecord], window: tuple[int, int]) -> HolderChain:
    """The holder chain of unpruned rounds start .. last_holder_round(window)."""
    start, end = window
    if start > end or start < 0:
        raise ValueError(f"bad window {window}")
    last = last_holder_round(window)
    if last >= len(holder_records):
        raise ValueError(
            f"window {window} needs holder rounds up to {last}, but only {len(holder_records)} rounds exist"
        )
    records = holder_records[start : last + 1]
    for record in records:
        if record.link is None:
            raise InvariantViolationError(f"round {record.round} was pruned; cannot build a holder chain")
    return HolderChain(tuple([record.commitment for record in records]), tuple([record.link for record in records[1:]]))


def _not_one_run(r: int) -> ValueError:
    return ValueError(f"receipts for round {r} are not one run of leaves in holder round {r + EVIDENCE_LAG}")


def _evidence_proof(holder_records: Sequence[NodeRecord], issuer_ids: Sequence[NodeId], r: int) -> InclusionProof:
    """Proof that round ``r``'s receipts from ``issuer_ids``, in that order, are one
    run of leaves in the holder's round r + EVIDENCE_LAG tree (unpruned: see ``_holder_chain``)."""
    retaining = holder_records[r + EVIDENCE_LAG]
    try:
        first = evidence_leaf_index(retaining.state, issuer_ids[0], r)
    except NotEntangledError:
        # A hub round whose first receipt is not where sorted order puts it is no run.
        if len(issuer_ids) > 1:
            raise _not_one_run(r) from None
        raise
    if len(issuer_ids) > 1:
        at = first - FIXED_LEAVES - len(retaining.state.entangled)
        run = retaining.state.evidence[at : at + len(issuer_ids)]
        if list(map(receipt_key, run)) != [(issuer_id, r) for issuer_id in issuer_ids]:
            raise _not_one_run(r)
    return retaining.tree.prove_range(first, first + len(issuer_ids))


def _window_rounds(
    holder_records: Sequence[NodeRecord],
    issuer_ids: Sequence[NodeId],
    window: tuple[int, int],
    receipts: Mapping[tuple[NodeId, int], Receipt],
) -> tuple[WindowRound, ...]:
    """Each window round's holder signature, the receipt paths of
    ``issuer_ids`` in that order and their evidence run, and in the first
    round their prev digests."""
    span = range(window[0], window[1] + 1)
    by_issuer = []
    for issuer_id in issuer_ids:  # a missing receipt is named before any evidence is proved
        try:
            by_issuer.append([receipts[issuer_id, r] for r in span])
        except KeyError:
            raise MissingReceiptError(issuer_id, next(r for r in span if (issuer_id, r) not in receipts)) from None
    first = by_issuer[0]
    for found in by_issuer[1:]:
        for r, receipt, other in zip(span, first, found):
            if other.submission.to_bytes() != receipt.submission.to_bytes():
                raise ValueError(f"receipts for round {r} carry different submissions")
    signatures = [receipt.submission.signature for receipt in first]  # the holder chain holds the rest of each submission
    paths = zip(*[[receipt.paths for receipt in found] for found in by_issuer])
    evidence = [_evidence_proof(holder_records, issuer_ids, r) for r in span]
    # Each issuer's chain enters the proof once, at the window's first round.
    written = tuple([found[0].prev_digest for found in by_issuer])
    return (WindowRound(signatures[0], next(paths), evidence[0], written), *map(WindowRound, signatures[1:], paths, evidence[1:]))


def build_link_proof(
    holder_records: Sequence[NodeRecord],
    issuer_id: NodeId,
    window: tuple[int, int],
    receipts: Mapping[tuple[NodeId, int], Receipt],
) -> LinkProof:
    chain = _holder_chain(holder_records, window)
    return LinkProof(issuer_id, chain, _window_rounds(holder_records, (issuer_id,), window, receipts))


class _Call:
    """One verifier call's directory, and the inclusion proofs it folded and
    the signatures it checked.  The checks take it where they take a directory."""

    def __init__(self, directory: KeyDirectory):
        self.directory = directory
        self.folds = self.signatures = 0

    def proves(self, c: Commitment, leaf_hashes: Sequence[bytes], proof: InclusionProof) -> bool:
        self.folds += 1
        return c.proves(leaf_hashes, proof)

    def verify_commitment(self, c: Commitment) -> bool:
        self.signatures += 1
        return self.directory.verify_commitment(c)

    def counted(self, verdict: Verdict) -> Verdict:
        return replace(verdict, signatures_checked=self.signatures, inclusion_proofs_checked=self.folds)


def _wrapped(reason: str, where: str, inner: Verdict) -> Verdict:
    """A failure of the part at ``where``, keeping its reason and detail."""
    detail = f" ({inner.detail})" if inner.detail else ""
    return Verdict.failed(reason, f"{where}: {inner.reason}{detail}")


def verify_link(proof: LinkProof, trusted: Mapping[int, Commitment], directory: KeyDirectory) -> Verdict:
    """Check one link against trusted issuer commitments.

    ``trusted`` maps issuer rounds to commitments whose signatures are
    checked apart from this call: anchor rows, which ``entmesh verify``
    checks before it reports a passing verdict (``check_anchor_signatures``),
    commitments a node checked before taking them from gossip, an anchor's own records,
    or the next hop's holder chain that ``verify_chain`` checks in the same
    call.  Each receipt is checked against the trusted copy of its issuer
    commitment, so that commitment's signature is not checked again.  The
    holder chain's head signature is checked last, after every other check.
    """
    call = _Call(directory)
    return call.counted(_check_link(proof, trusted, call) and verify_chain_head(proof.holder_chain, call))


def _check_link(proof: LinkProof, trusted: _ByRound, call: _Call) -> Verdict:
    """Every check of a link but its head's signature."""
    return _check_holder_chain(proof, call) and _check_rounds(proof, ((proof.issuer_id, trusted),), call)


def _check_holder_chain(holder: "LinkProof | HubProof", call: _Call) -> Verdict:
    """The holder chain holds a commitment per window round and EVIDENCE_LAG
    more, each the first one's node's, linked up.  A head with no key bound
    at its round fails here, with no Ed25519 check."""
    if len(holder.holder_chain.commitments) != len(holder.rounds) + EVIDENCE_LAG:
        return Verdict.failed("WindowInvalid", "holder chain does not cover the window")
    for c in holder.holder_chain.commitments:
        if c.node_id != holder.holder_id:
            return Verdict.failed("HolderMismatch", "chain entry from another node")
    verdict = verify_chain_links(holder.holder_chain, call)
    head = holder.holder_chain.commitments[-1]
    if verdict and call.directory.key_at(head.node_id, head.round) is None:
        return verify_chain_head(holder.holder_chain, call.directory)
    return verdict


def _part_failed(holder: "LinkProof | HubProof", where: str, reason: str, detail: str) -> Verdict:
    """A failure of ``holder``'s part at ``where``, which a hub proof names; a link proof is one part."""
    verdict = Verdict.failed(reason, detail)
    return _wrapped("LinkFailed", where, verdict) if isinstance(holder, HubProof) else verdict


def _check_rounds(holder: "LinkProof | HubProof", issuers: Sequence[tuple[NodeId, _ByRound]], call: _Call) -> Verdict:
    """Each window round r in turn, with ``holder``'s checked chain walked by
    position: the submission rebuilt from commitment r and the round's
    signature, hashed (the trusted issuer commitment and the head cover the
    leaves that hold it), then each receipt's paths against its (issuer id,
    trusted issuer commitments) pair in ``issuers``, then the evidence proof
    against commitment r + EVIDENCE_LAG.  A receipt's prev digest is the one
    the window's first round writes, and its trusted issuer commitment's of
    round r after it, whose first-leaf fold links the issuer's chain on.
    Only the head's signature vouches for its leaf count: if that count may
    fail the last evidence, it is checked there."""
    chain = holder.holder_chain.commitments
    for c, (signature, receipts, evidence, written), retaining in zip(chain, holder.rounds, chain[EVIDENCE_LAG:]):
        r = c.round
        sub = submission_of(c, signature)
        sub_hash, leaf_hashes = leaf_hash(sub.leaf_bytes()), []
        # After the window's first round, trusted[r] is the commitment round r - 1's receipt was checked against.
        prev_digests = written or [commitment_digest(trusted[r]) for _, trusted in issuers]
        for (issuer_id, trusted), paths, prev_digest in zip(issuers, receipts, prev_digests):
            issuer_c = trusted.get(r + 1)
            if issuer_c is None:
                detail = f"no trusted issuer commitment for round {r + 1}"
                return _part_failed(holder, issuer_id.hex(), "TrustedRootUnavailable", detail)
            if issuer_c.node_id != issuer_id:
                return _part_failed(holder, issuer_id.hex(), "ReceiptMismatch", "receipt from another issuer")
            first_leaf = prev_leaf_hash(prev_digest)
            # Its signature was checked where it entered trust.  With a written digest, its first leaf is the receipt's check.
            verdict = _check_receipt_inclusions((sub_hash, first_leaf) if written else (sub_hash,), paths, issuer_c, call)
            if not verdict:
                return _part_failed(holder, issuer_id.hex(), verdict.reason, f"{verdict.detail} for round {r}")
            if not written and not call.proves(issuer_c, (first_leaf,), paths.prev_inclusion):
                detail = f"issuer chain breaks before round {r + 1}"
                return _part_failed(holder, issuer_id.hex(), "ChainBreak", detail)
            # The receipt's bytes, as its holder retained them, hold its paths in the receipt's form.
            paths_bytes = receipt_paths(paths, prev_digest, issuer_c.leaf_count)
            leaf_hashes.append(leaf_hash(evidence_leaf(sub, issuer_c, paths_bytes)))
        if not call.proves(retaining, leaf_hashes, evidence):
            if retaining is chain[-1] and _folds_at_another_leaf_count(retaining, leaf_hashes, evidence):
                verdict = verify_chain_head(holder.holder_chain, call)
                if not verdict:
                    return _part_failed(holder, "holder chain", verdict.reason, verdict.detail)
            what = "receipts" if isinstance(holder, HubProof) else "receipt"
            return Verdict.failed("EvidenceInvalid", f"{what} for round {r} not retained in round {r + EVIDENCE_LAG}")
    return Verdict.passed()


def _folds_at_another_leaf_count(head: Commitment, leaf_hashes: Sequence[bytes], proof: InclusionProof) -> bool:
    """Whether ``proof`` places the leaves in ``head``'s root at another leaf
    count n with the same ceil(log2 n), at all of which its link folds alike."""
    top = 1 << (head.leaf_count - 1).bit_length()
    sizes = fold_sizes(proof.leaf_index, len(leaf_hashes), top // 2 + 1, top)
    return any(verify_inclusion(leaf_hashes, proof, n, head.root) for n in sizes)


@dataclass(frozen=True)
class HubProof(_Held):
    """All of a holder's committed links over one window, sharing one holder chain and each round's holder signature."""

    manifest: tuple[NodeId, ...]
    manifest_proofs: tuple[InclusionProof, ...]  # manifest leaf, one per window round
    holder_chain: HolderChain  # rounds start .. end + EVIDENCE_LAG
    rounds: tuple[WindowRound, ...]  # one per window round, each with every manifest issuer's receipt paths

    def __post_init__(self) -> None:
        if not self.manifest:
            raise WireError("a hub proof needs at least one link")
        for proof in self.manifest_proofs:
            at_leaf(proof, MANIFEST_LEAF_INDEX)
        self._refuse_shapes(len(self.manifest))

    def to_bytes(self) -> bytes:
        proofs = [encode_inclusion_proof(proof, MANIFEST_LEAF_INDEX) for proof in self.manifest_proofs]
        chain, rounds = self.holder_chain.parts(), _rounds_bytes(self.rounds)
        return b"".join([digests(self.manifest), prefix(len(proofs)), *proofs, *chain, *rounds])

    @staticmethod
    def read(r: Reader) -> "HubProof":
        manifest = r.digests("manifest ids", MAX_ITEMS)
        manifest_proofs = r.many(lambda r: read_inclusion_proof(r, MANIFEST_LEAF_INDEX), "manifest proofs", MAX_ITEMS)
        return HubProof(manifest, manifest_proofs, HolderChain.read(r), _read_rounds(r, len(manifest)))


def build_hub_proof(
    holder_records: Sequence[NodeRecord],
    window: tuple[int, int],
    receipts: Mapping[tuple[NodeId, int], Receipt],
) -> HubProof:
    chain = _holder_chain(holder_records, window)
    start, end = window
    manifest = holder_records[start].state.manifest
    if not manifest:
        raise ValueError(f"holder commits an empty manifest at round {start}; a hub proof needs at least one link")
    proofs = []
    for r in range(start, end + 1):
        record = holder_records[r]
        if record.state.manifest != manifest:
            raise ValueError(f"manifest changed inside window at round {r}")
        proofs.append(record.tree.prove_inclusion(MANIFEST_LEAF_INDEX))
    rounds = _window_rounds(holder_records, manifest, window, receipts)
    return HubProof(manifest, tuple(proofs), chain, rounds)


def verify_hub(
    proof: HubProof,
    trusted: Mapping[NodeId, Mapping[int, Commitment]],
    directory: KeyDirectory,
) -> Verdict:
    """Check completeness: every committed link present and verifying, and
    each window round's receipts retained as one run of leaves.

    ``trusted`` maps each issuer id to that issuer's commitments,
    authenticated apart from this call as ``verify_link`` requires; their
    signatures are not checked here.  The holder chain's head signature is
    checked last.
    """
    call = _Call(directory)
    return call.counted(_check_hub(proof, trusted, call))


def _check_hub(proof: HubProof, trusted: Mapping[NodeId, Mapping[int, Commitment]], call: _Call) -> Verdict:
    if len(proof.manifest_proofs) != len(proof.rounds):
        return Verdict.failed("WindowInvalid", "one manifest proof per round required")
    if tuple(sorted(proof.manifest)) != proof.manifest or len(set(proof.manifest)) != len(proof.manifest):
        return Verdict.failed("ManifestMismatch", "manifest not in canonical order")
    # A decoded round holds one receipt's paths per issuer; a hub held in
    # memory that leaves a committed link out is refused here, by name.
    if any(len(rnd.receipts) != len(proof.manifest) for rnd in proof.rounds):
        return Verdict.failed("ManifestMismatch", "presented links do not match the committed manifest")
    verdict = _check_holder_chain(proof, call)
    if not verdict:
        return _wrapped("LinkFailed", "holder chain", verdict)
    manifest_hash = (leaf_hash(_manifest_leaf(proof.manifest)),)
    for c, m_proof in zip(proof.holder_chain.commitments, proof.manifest_proofs):
        if not call.proves(c, manifest_hash, m_proof):
            return Verdict.failed("ManifestMismatch", f"committed manifest differs at round {c.round}")
    issuers = [(issuer_id, trusted.get(issuer_id)) for issuer_id in proof.manifest]
    for issuer_id, issuer_trust in issuers:
        if issuer_trust is None:
            return Verdict.failed("TrustedRootUnavailable", f"no trusted commitments for {issuer_id.hex()}")
    verdict = _check_rounds(proof, issuers, call)
    if not verdict:
        return verdict
    verdict = verify_chain_head(proof.holder_chain, call)
    return verdict or _wrapped("LinkFailed", "holder chain", verdict)


@dataclass(frozen=True)
class ChainProof:
    """Composed links from a holder to a trust anchor.

    Hop i covers holder rounds shifted i ahead of hop 0, matching the one
    round it takes each tree to be entangled upstream.
    """

    hops: tuple[LinkProof, ...]

    def __post_init__(self) -> None:
        if not self.hops:
            raise WireError("a chain proof needs at least one hop")

    @property
    def holder_id(self) -> NodeId:
        return self.hops[0].holder_id

    @property
    def anchor_id(self) -> NodeId:
        return self.hops[-1].issuer_id

    def to_bytes(self) -> bytes:
        return b"".join([prefix(len(self.hops)), *[hop.to_bytes() for hop in self.hops]])

    @staticmethod
    def read(r: Reader) -> "ChainProof":
        return ChainProof(r.many(LinkProof.read, "hops", MAX_ITEMS))


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
    windows = hop_windows(start_round, window_len, len(path) - 1)
    return ChainProof(
        hops=tuple(
            build_link_proof(records_by_id[holder], issuer, window, receipts_by_id[holder])
            for holder, issuer, window in zip(path, path[1:], windows)
        )
    )


def verify_chain(proof: ChainProof, trusted_anchor: Mapping[int, Commitment], directory: KeyDirectory) -> Verdict:
    """Check a chain against the anchor's trusted commitments only.

    ``trusted_anchor`` holds commitments authenticated apart from this call, as
    ``verify_link`` requires.  Inner hops need no independent trust: hop i's
    issuer commitments are hop i+1's holder chain commitments, which this call
    links to that chain's head and checks the head's signature.  The last hop's receipts take the anchor's trusted
    commitments, up to the anchor round, the last hop's window end + 1.
    The hops' heads come last, in the hops' order, from the anchor side.
    Reasons: BrokenHop, InsufficientLatency.
    """
    call = _Call(directory)
    return call.counted(_check_chain(proof, trusted_anchor, call))


def _check_chain(proof: ChainProof, trusted_anchor: Mapping[int, Commitment], call: _Call) -> Verdict:
    base = proof.hops[0]
    for i, hop in enumerate(proof.hops):
        if (hop.window_start, hop.window_end) != (base.window_start + i, base.window_end + i):
            return Verdict.failed("BrokenHop", f"hop {i} window does not shift by one round per hop")
        if i > 0 and proof.hops[i - 1].issuer_id != hop.holder_id:
            return Verdict.failed("BrokenHop", f"hop {i - 1} issuer is not hop {i} holder")
    last = len(proof.hops) - 1
    # Hop i + 1's holder chain vouches for hop i's issuer, and the anchor's log for the last hop's.
    trust = [*(_by_round(hop.holder_chain.commitments) for hop in proof.hops[1:]), trusted_anchor]
    for i in range(last, -1, -1):
        verdict = _check_link(proof.hops[i], trust[i], call)
        if i == last and verdict.reason == "TrustedRootUnavailable":
            needs = f"chain of {len(proof.hops)} hops needs an anchor commitment at round >= {proof.hops[i].window_end + 1}"
            return Verdict.failed("InsufficientLatency", f"{verdict.detail}; {needs}")
        if not verdict:
            return _wrapped("BrokenHop", f"hop {i}", verdict)
    for i in reversed(range(len(proof.hops))):
        verdict = verify_chain_head(proof.hops[i].holder_chain, call)
        if not verdict:
            return _wrapped("BrokenHop", f"hop {i}", verdict)
    return Verdict.passed()


@dataclass(frozen=True)
class PathStep:
    """One hop of a bare digest path.

    ``entangled``: the running root appears as a signed submission leaf in
    the next tree.  ``prev``: the running root is inside a commitment whose
    digest is the next tree's first leaf.  ``tree_size`` is the next tree's
    leaf count, which the proof's fold takes.
    """

    kind: str  # "entangled" | "prev"
    proof: InclusionProof
    tree_size: int
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
                tree_size=record.tree.size,
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
        try:
            index = entangled_leaf_index(record.state, node_id, round_no)
        except NotEntangledError:
            continue
        yield (other_id, round_no + 1), PathStep(
            kind="entangled",
            proof=record.tree.prove_inclusion(index),
            tree_size=record.tree.size,
            submission=record.state.entangled[index - FIXED_LEAVES],
        )


def verify_root_path(path: RootPath, start_root: Digest, end_root: Digest) -> bool:
    """Walk the digest path; True iff it transitively commits start in end."""
    current = start_root
    for step in path.steps:
        if step.kind == "entangled":
            if step.submission is None or step.submission.holder_root != current:
                return False
            implied = fold_root((leaf_hash(step.submission.leaf_bytes()),), step.proof, step.tree_size)
        elif step.kind == "prev":
            if step.commitment is None or step.commitment.root != current:
                return False
            if step.proof.leaf_index != 0:
                return False
            implied = fold_root((prev_leaf_hash(commitment_digest(step.commitment)),), step.proof, step.tree_size)
        else:
            return False
        if implied is None:
            return False
        current = implied
    return current == end_root


_PROOF_MAGIC = b"EMPB"
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
