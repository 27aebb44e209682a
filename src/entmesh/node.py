"""Single-writer node state machines.

Each node advances in discrete rounds.  A round's state is flattened into a
fixed leaf layout, committed as a Merkle root, and signed.  The first leaf
of every tree is the digest of the previous round's commitment, so the
per-round roots form a tamper-evident chain: substituting any historical
round breaks verification at the next one.  A holder chain is a run of
commitments and, for each after the first, its first leaf's path (``ChainLink``):
a ``HolderChain``.

Leaf layout (tags distinguish every leaf kind; see docs/FORMATS.md):

    [0] prev-commitment digest     (zeros at round 0)
    [1] payload content address    (root of the payload expression tree)
    [2] manifest                   (sorted ids this node submits its root to)
    [.] one leaf per entangled submission, sorted
    [.] one leaf per evidence receipt, sorted
    [.] one leaf per credential digest, sorted        (optional)
    [.] revocation list                               (credential issuers only)
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional, Sequence

from .hashtree import Digest, InclusionProof, MerkleTree, ZERO_DIGEST, leaf_hash, sha256, verify_inclusion
from .keys import Ed25519Scheme, KeyPair, NodeId, node_id_for_key
from .sexpr import Expr, encode_tree
from .wire import (
    MAX_ITEMS,
    Head,
    Reader,
    WireError,
    at_leaf,
    bounded,
    decode,
    digest,
    digests,
    encode_inclusion_proof,
    encode_receipt_path,
    prefix,
    read_inclusion_proof,
)

__all__ = [
    "ChainLink",
    "Commitment",
    "HolderChain",
    "InvariantViolationError",
    "KeyDirectory",
    "Node",
    "NodeRecord",
    "NotEntangledError",
    "Receipt",
    "ReceiptPaths",
    "RoundState",
    "StaleSubmissionError",
    "Submission",
    "Verdict",
    "build_round",
    "check_receipt",
    "commitment_digest",
    "round_leaves",
    "verify_chain_entries",
]

LEAF_PREV = 0x01
LEAF_PAYLOAD = 0x02
LEAF_MANIFEST = 0x03
LEAF_ENTANGLED = 0x04
LEAF_EVIDENCE = 0x05
LEAF_CREDENTIAL = 0x06
LEAF_REVOCATION = 0x07

# Length bounds of node records (the table in docs/FORMATS.md).
MAX_SIGNATURE = 256  # bytes of one signature

# A holder may lag its issuer by at most this many rounds at receipt time.
STALE_THRESHOLD = 1


class InvariantViolationError(ValueError):
    pass


class StaleSubmissionError(ValueError):
    pass


class NotEntangledError(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    """Boolean verification outcome plus a machine-readable reason.

    The proof verifiers also count the signatures they checked and the
    inclusion proofs they folded (a range proof is one).  A verdict is
    frozen, so every passed check shares the one ``Verdict.passed()`` returns.
    """

    ok: bool
    reason: Optional[str] = None
    detail: Optional[str] = None
    signatures_checked: int = 0
    inclusion_proofs_checked: int = 0

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def passed() -> "Verdict":
        return _PASSED

    @staticmethod
    def failed(reason: str, detail: Optional[str] = None) -> "Verdict":
        return Verdict(False, reason, detail)


_PASSED = Verdict(True)


# The fields a commitment and a submission sign, in wire order, and the head
# a commitment's reader unpacks: its fields and the length of the signature blob.
_COMMITMENT_FIELDS, _COMMITMENT_HEAD = Head("dQdQ"), Head("dQdQI")  # node_id, round, root, leaf_count
_SUBMISSION_FIELDS = Head("dQd")  # holder_id, holder_round, holder_root


def _signed(fields: bytes, signature: bytes) -> bytes:
    return b"".join((fields, prefix(len(signature)), signature))


# A record gets its bytes when it is made, in its ``__post_init__``: those
# passed as ``encoding`` (a reader's slice, or the bytes ``build_round``
# signed), else its fields encoded once.  So a record its encoder refuses
# cannot be made.  The init-only ``encoding`` is not named ``_encoding``:
# ``dataclasses.replace`` passes each unnamed one on, and would hand a
# record's old bytes to its new fields.


@dataclass(frozen=True)
class Commitment:
    """A signed statement: at ``round``, this node's tree had ``leaf_count``
    leaves and root ``root``.

    The leaf count is signed alongside the root: a bare root does not pin
    the tree's shape, so inclusion proofs are checked against both.
    """

    node_id: NodeId
    round: int
    root: Digest
    leaf_count: int
    signature: bytes
    encoding: InitVar[Optional[bytes]] = None

    def __post_init__(self, encoding: Optional[bytes]) -> None:
        if encoding is None:
            encoding = _signed(_COMMITMENT_FIELDS.pack(self.node_id, self.round, self.root, self.leaf_count), self.signature)
        object.__setattr__(self, "_encoding", encoding)

    def message(self) -> bytes:
        return self._encoding[: _COMMITMENT_FIELDS.size]

    def to_bytes(self) -> bytes:
        return self._encoding

    def proves(self, leaf_hashes: Sequence[bytes], proof: InclusionProof) -> bool:
        """True iff ``proof`` places the run of leaves with ``leaf_hashes`` in
        this commitment's tree: folded in a tree of ``leaf_count`` leaves, it
        must give ``root``."""
        return verify_inclusion(leaf_hashes, proof, self.leaf_count, self.root)

    @staticmethod
    def read(r: Reader) -> "Commitment":
        start = r.tell()
        node_id, round_no, root, leaf_count, n = _COMMITMENT_HEAD.read(r)
        signature = r._take(bounded(n, MAX_SIGNATURE))
        return Commitment(node_id, round_no, root, leaf_count, signature, encoding=r.since(start))

    @staticmethod
    def from_bytes(data: bytes) -> "Commitment":
        return decode(data, Commitment.read)


def commitment_digest(commitment: Commitment) -> Digest:
    return sha256(commitment._encoding)


def prev_leaf_hash(prev_digest: Digest) -> Digest:
    """The hash of a tree's first leaf, ``0x01 || prev_digest``."""
    return leaf_hash(bytes([LEAF_PREV]) + prev_digest)


@dataclass(frozen=True)
class Submission:
    """A holder's signed root, as handed to an issuer for entanglement.  Its
    bytes are hashed and written, never read: a proof holds its signature."""

    holder_id: NodeId
    holder_round: int
    holder_root: Digest
    signature: bytes

    def __post_init__(self) -> None:
        fields = _SUBMISSION_FIELDS.pack(self.holder_id, self.holder_round, self.holder_root)
        object.__setattr__(self, "_encoding", _signed(fields, self.signature))

    def message(self) -> bytes:
        return self._encoding[: _SUBMISSION_FIELDS.size]

    def to_bytes(self) -> bytes:
        return self._encoding

    def leaf_bytes(self) -> bytes:
        return bytes([LEAF_ENTANGLED]) + self._encoding


def submission_of(c: Commitment, signature: bytes) -> Submission:
    """The Submission of ``c``'s node, round and root under ``signature``: as its
    holder signs it, or as a verifier rebuilds it from a holder chain commitment."""
    return Submission(c.node_id, c.round, c.root, signature)


@dataclass(frozen=True)
class ReceiptPaths:
    """What a receipt proves in its issuer's tree: the submission leaf's
    inclusion proof, and the proof of the first leaf, which holds the
    issuer's previous-commitment digest (the receipt's ``prev_digest``).  A
    proof carries these per issuer round; the submission once per round,
    each issuer's prev digest once, in its window's first round, and the
    issuer commitment not at all: the verifier holds a trusted copy.

    Its encoding is the form a proof writes: the submission leaf's path
    with its index, then the first leaf's path as the issuer round's
    ``ChainLink`` writes it.  A receipt writes its paths in another form,
    with the issuer tree's size and each step's side, and its prev digest
    between them (``receipt_paths``).  Like a link, it is made only with
    that path at index 0, even from bytes passed in.
    """

    inclusion: InclusionProof
    prev_inclusion: InclusionProof
    encoding: InitVar[Optional[bytes]] = None

    def __post_init__(self, encoding: Optional[bytes]) -> None:
        at_leaf(self.prev_inclusion, 0)
        if encoding is None:
            encoding = _joined_paths(self.inclusion, ChainLink(self.prev_inclusion))
        object.__setattr__(self, "_encoding", encoding)

    @staticmethod
    def of_round(inclusion: InclusionProof, link: "ChainLink") -> "ReceiptPaths":
        """Paths whose first-leaf path is the issuer round's ``link``, joined
        from the bytes the link keeps."""
        return ReceiptPaths(inclusion, link.proof, encoding=_joined_paths(inclusion, link))

    def to_bytes(self) -> bytes:
        return self._encoding

    @staticmethod
    def read(r: Reader) -> "ReceiptPaths":
        start = r.tell()
        inclusion, prev_inclusion = read_inclusion_proof(r), read_inclusion_proof(r, 0)
        return ReceiptPaths(inclusion, prev_inclusion, encoding=r.since(start))


def _joined_paths(inclusion: InclusionProof, link: "ChainLink") -> bytes:
    return encode_inclusion_proof(inclusion) + link.to_bytes()


def receipt_paths(paths: ReceiptPaths, prev_digest: Digest, leaf_count: int) -> bytes:
    """``paths`` and ``prev_digest`` as a receipt writes them, the rest of
    the receipt after its issuer commitment, for an issuer tree of
    ``leaf_count`` leaves: each path a blob of its head (leaf index, tree
    size, step count) and its steps (``encode_receipt_path``), with the prev
    digest between them: a receipt's own, or the one a proof verifier holds
    for it, written in the proof or its trusted issuer commitment's."""
    parts = encode_receipt_path(paths.inclusion, leaf_count)
    parts.append(digest(prev_digest))
    parts += encode_receipt_path(paths.prev_inclusion, leaf_count)
    return b"".join(parts)


@dataclass(frozen=True)
class Receipt:
    """An issuer's acknowledgement that a holder root is entangled.

    Carries the holder's signed submission, the issuer's full commitment,
    the issuer's previous-commitment digest and the paths that prove the
    submission and that digest's leaf in that commitment's tree, so a
    receipt alone lets the holder check the issuer's chain continuity round
    over round.  Receipts are retained
    as evidence leaves in the holder's tree two rounds after the submitted
    root's round.  Its bytes are its Submission's and issuer commitment's
    kept bytes and its prev digest and paths as a receipt writes them,
    joined when asked for.  It keeps that last part, written when it is
    made; its paths keep the form a proof writes of them.
    """

    submission: Submission
    issuer_commitment: Commitment
    prev_digest: Digest
    paths: ReceiptPaths

    @property
    def holder_id(self) -> NodeId:
        return self.submission.holder_id

    @property
    def holder_round(self) -> int:
        return self.submission.holder_round

    @property
    def holder_root(self) -> Digest:
        return self.submission.holder_root

    @property
    def issuer_id(self) -> NodeId:
        return self.issuer_commitment.node_id

    @property
    def issuer_round(self) -> int:
        return self.issuer_commitment.round

    def __post_init__(self) -> None:
        encoded = receipt_paths(self.paths, self.prev_digest, self.issuer_commitment.leaf_count)
        object.__setattr__(self, "_paths_encoding", encoded)

    def to_bytes(self) -> bytes:
        c = self.issuer_commitment._encoding
        return b"".join((self.submission._encoding, prefix(len(c)), c, self._paths_encoding))

    def leaf_bytes(self) -> bytes:
        return evidence_leaf(self.submission, self.issuer_commitment, self._paths_encoding)


def evidence_leaf(submission: Submission, c: Commitment, paths: bytes) -> bytes:
    """The evidence leaf of the receipt of ``submission``, ``c`` and the
    receipt's ``paths`` bytes (``receipt_paths``), joined once: a retained
    receipt's, or a proof verifier's with its trusted ``c``."""
    blob = c._encoding
    return b"".join((bytes([LEAF_EVIDENCE]), submission._encoding, prefix(len(blob)), blob, paths))


def _manifest_leaf(manifest: Sequence[NodeId]) -> bytes:
    return bytes([LEAF_MANIFEST]) + digests(manifest)


def _revocation_leaf(revoked: Sequence[Digest]) -> bytes:
    return bytes([LEAF_REVOCATION]) + digests(revoked)


@dataclass(frozen=True)
class RoundState:
    """Everything a node commits to in one round."""

    node_id: NodeId
    round: int
    prev_commitment_digest: Digest
    payload: Expr
    manifest: tuple[NodeId, ...]
    entangled: tuple[Submission, ...]
    evidence: tuple[Receipt, ...]
    credentials: tuple[Digest, ...] = ()
    revocation: Optional[tuple[Digest, ...]] = None


# The sort keys of a state's entangled submissions, (holder id, holder round),
# and of its evidence receipts, (issuer id, holder round): each one C-level
# call, so a binary search makes no Python call per probe.
submission_key = attrgetter("holder_id", "holder_round")
receipt_key = attrgetter("issuer_commitment.node_id", "submission.holder_round")


def _require_sorted_unique(items: Sequence, what: str) -> None:
    for a, b in zip(items, items[1:]):
        if not a < b:
            raise InvariantViolationError(f"{what} must be strictly ascending")


def validate_state(state: RoundState) -> None:
    if state.round < 0:
        raise InvariantViolationError("round must be non-negative")
    if state.round == 0 and state.prev_commitment_digest != ZERO_DIGEST:
        raise InvariantViolationError("round 0 must chain from the zero digest")
    _require_sorted_unique(state.manifest, "manifest")
    _require_sorted_unique(list(map(submission_key, state.entangled)), "entangled submissions")
    _require_sorted_unique(list(map(receipt_key, state.evidence)), "evidence receipts")
    _require_sorted_unique(state.credentials, "credential digests")
    if state.revocation is not None:
        _require_sorted_unique(state.revocation, "revocation list")


def round_leaves(state: RoundState) -> list[bytes]:
    """Flatten a round state into its normative leaf sequence."""
    leaves = [
        bytes([LEAF_PREV]) + state.prev_commitment_digest,
        bytes([LEAF_PAYLOAD]) + encode_tree(state.payload).root,
        _manifest_leaf(state.manifest),
    ]
    leaves.extend(s.leaf_bytes() for s in state.entangled)
    leaves.extend(r.leaf_bytes() for r in state.evidence)
    leaves.extend(bytes([LEAF_CREDENTIAL]) + d for d in state.credentials)
    if state.revocation is not None:
        leaves.append(_revocation_leaf(state.revocation))
    return leaves


MANIFEST_LEAF_INDEX = 2
FIXED_LEAVES = 3  # prev, payload, manifest: the leaves before the entangled ones


def _find(items: Sequence, key, item_key=None) -> int:
    """The position of ``key`` in ``items``, or -1 if it is absent.

    A binary search: ``items`` must be strictly ascending by ``item_key``
    (the item itself when None), as ``validate_state`` requires of a state.
    """
    pos = bisect_left(items, key, key=item_key)
    if pos < len(items) and (items[pos] if item_key is None else item_key(items[pos])) == key:
        return pos
    return -1


def entangled_leaf_index(state: RoundState, holder_id: NodeId, holder_round: int) -> int:
    pos = _find(state.entangled, (holder_id, holder_round), submission_key)
    if pos < 0:
        raise NotEntangledError(f"no submission from {holder_id.hex()} round {holder_round}")
    return FIXED_LEAVES + pos


def evidence_leaf_index(state: RoundState, issuer_id: NodeId, holder_round: int) -> int:
    pos = _find(state.evidence, (issuer_id, holder_round), receipt_key)
    if pos < 0:
        raise NotEntangledError(f"no evidence from {issuer_id.hex()} for round {holder_round}")
    return FIXED_LEAVES + len(state.entangled) + pos


def credential_leaf_index(state: RoundState, digest: Digest) -> int:
    pos = _find(state.credentials, digest)
    if pos < 0:
        raise NotEntangledError(f"credential {digest.hex()} not committed in round {state.round}")
    return FIXED_LEAVES + len(state.entangled) + len(state.evidence) + pos


def revocation_leaf_index(state: RoundState) -> int:
    if state.revocation is None:
        raise NotEntangledError("state carries no revocation list")
    return FIXED_LEAVES + len(state.entangled) + len(state.evidence) + len(state.credentials)


def build_round(state: RoundState, keypair: KeyPair) -> tuple[MerkleTree, Commitment]:
    """Build and sign one round.  Deterministic in the state's field values."""
    validate_state(state)
    tree = MerkleTree(round_leaves(state))
    signed = _COMMITMENT_FIELDS.pack(state.node_id, state.round, tree.root, tree.size)
    signature = keypair.sign(signed)
    return tree, Commitment(state.node_id, state.round, tree.root, tree.size, signature, encoding=_signed(signed, signature))


class KeyDirectory:
    """Verification keys by node id, with round-scoped rebinding.

    A node id is the fingerprint of its genesis key.  Key recovery rebinds
    the id to a new key from a given round onward without changing the id,
    so old commitments still verify under the key that signed them.
    """

    def __init__(self):
        self._bindings: dict[NodeId, list[tuple[int, bytes]]] = {}

    def register(self, node_id: NodeId, verify_key: bytes) -> None:
        if node_id_for_key(verify_key) != node_id:
            raise InvariantViolationError("node id is not the fingerprint of the key")
        if node_id in self._bindings:
            raise InvariantViolationError(f"node id {node_id.hex()} is already registered")
        self._bindings[node_id] = [(0, bytes(verify_key))]

    def rebind(self, node_id: NodeId, verify_key: bytes, from_round: int) -> None:
        bindings = self._bindings.setdefault(node_id, [])
        bindings.append((from_round, bytes(verify_key)))
        bindings.sort(key=lambda item: item[0])

    def key_at(self, node_id: NodeId, round_no: int) -> Optional[bytes]:
        bindings = self._bindings.get(node_id)
        if not bindings:
            return None
        key = None
        for from_round, vk in bindings:
            if from_round <= round_no:
                key = vk
        return key

    def bindings_of(self, node_id: NodeId) -> tuple[tuple[int, bytes], ...]:
        return tuple(self._bindings.get(node_id, ()))

    def verify_signature(self, node_id: NodeId, round_no: int, message: bytes, signature: bytes) -> bool:
        """True iff ``signature`` over ``message`` verifies under the key
        bound to ``node_id`` at ``round_no``."""
        key = self.key_at(node_id, round_no)
        return key is not None and Ed25519Scheme().verify(key, message, signature)

    def verify_commitment(self, c: Commitment) -> bool:
        return self.verify_signature(c.node_id, c.round, c.message(), c.signature)

    def verify_submission(self, s: Submission) -> bool:
        return self.verify_signature(s.holder_id, s.holder_round, s.message(), s.signature)

    def proves(self, c: Commitment, leaf_hashes: Sequence[bytes], proof: InclusionProof) -> bool:
        """``c.proves(leaf_hashes, proof)``, which a proof verifier's call counts."""
        return c.proves(leaf_hashes, proof)


def check_receipt(receipt: Receipt, directory: KeyDirectory) -> Verdict:
    """The checks every receipt needs, whoever verifies it.

    In order: the issuer commitment's signature (BadSignature), the
    submission leaf's proof (ReceiptInvalid), and the proof of the issuer
    tree's prev-commitment leaf (ReceiptInvalid), at index 0: a
    ``ReceiptPaths`` is made only there.  The holder's
    signature is not checked here: the holder itself compares the attested
    root with its own record, so only a node forwarded the receipt checks
    it.  A proof verifier runs only the two inclusion checks, against its
    trusted copy of the issuer commitment, the second from the prev digest
    its proof writes at the window's first round and from the digest of
    the copy's predecessor after it, and hashes the holder's signature
    without checking it.
    """
    c = receipt.issuer_commitment
    if not directory.verify_commitment(c):
        return Verdict.failed("BadSignature", f"issuer {c.node_id.hex()}")
    leaf_hashes = (leaf_hash(receipt.submission.leaf_bytes()), prev_leaf_hash(receipt.prev_digest))
    return _check_receipt_inclusions(leaf_hashes, receipt.paths, c, directory)


def _check_receipt_inclusions(leaf_hashes: Sequence[Digest], paths: ReceiptPaths, c: Commitment, directory: KeyDirectory) -> Verdict:
    """``check_receipt`` without the issuer signature, against issuer
    commitment ``c``: the receipt's own, or a proof verifier's
    authenticated copy, which a proof does not carry.  ``leaf_hashes``
    holds the submission leaf's hash, which the caller makes once for
    every receipt that shares it, then the first leaf's, from the receipt's
    prev digest.  A proof verifier hands the first leaf's only at its
    window's first round, whose digests the proof writes; after it, it
    folds that leaf itself, from its trusted issuer commitment."""
    if not directory.proves(c, leaf_hashes[:1], paths.inclusion):
        return Verdict.failed("ReceiptInvalid", "submission leaf unproven")
    if leaf_hashes[1:] and not directory.proves(c, leaf_hashes[1:], paths.prev_inclusion):
        return Verdict.failed("ReceiptInvalid", "prev-commitment leaf unproven")
    return Verdict.passed()


@dataclass(frozen=True)
class ChainLink:
    """The path of a commitment's first leaf, which holds the digest of the one
    before it in a holder chain.  The verifier computes that leaf, so a link is
    the path at index 0, encoded without the index, and made only there, even
    from a reader's bytes.  Made with its record."""

    proof: InclusionProof
    encoding: InitVar[Optional[bytes]] = None

    def __post_init__(self, encoding: Optional[bytes]) -> None:
        at_leaf(self.proof, 0)
        if encoding is None:
            encoding = encode_inclusion_proof(self.proof, 0)
        object.__setattr__(self, "_encoding", encoding)

    def to_bytes(self) -> bytes:
        return self._encoding

    @staticmethod
    def read(r: Reader) -> "ChainLink":
        start = r.tell()
        return ChainLink(read_inclusion_proof(r, 0), encoding=r.since(start))


NO_HOLDER_OR_WINDOW = "a link or hub proof needs a holder chain entry and a window round"


@dataclass(frozen=True)
class HolderChain:
    """A run of commitments and, for each after the first, its link: what a
    link or hub proof holds and an audit walks.  Made only with a commitment
    and one link per commitment after it, so no check meets another shape."""

    commitments: tuple[Commitment, ...]
    links: tuple[ChainLink, ...]

    def __post_init__(self) -> None:
        if not self.commitments:
            raise WireError(NO_HOLDER_OR_WINDOW)
        if len(self.links) != len(self.commitments) - 1:
            raise WireError("a holder chain holds one link per commitment after the first")

    def parts(self) -> list[bytes]:
        """A u32 count and each commitment, then each link: the parts, for one join."""
        commitments = [c._encoding for c in self.commitments]
        return [prefix(len(commitments)), *commitments, *[link._encoding for link in self.links]]

    @staticmethod
    def read(r: Reader) -> "HolderChain":
        commitments = r.many(Commitment.read, "holder chain commitments", MAX_ITEMS)
        return HolderChain(commitments, tuple([ChainLink.read(r) for _ in range(len(commitments) - 1)]))


def verify_chain_entries(chain: HolderChain, directory: KeyDirectory) -> Verdict:
    """Check that a holder chain links up, then its head's signature, which covers
    the whole run through the links.  A proof verifier calls the two parts apart."""
    return verify_chain_links(chain, directory) and verify_chain_head(chain, directory)


def verify_chain_links(chain: HolderChain, directory: KeyDirectory) -> Verdict:
    """The links of a holder chain, each folded once through ``directory.proves``.
    Reasons: RoundGap (rounds are not consecutive), ChainBreak (a link whose
    first leaf is not the previous commitment's digest)."""
    commitments = chain.commitments
    for previous, c, link in zip(commitments, commitments[1:], chain.links):
        if c.round != previous.round + 1:
            return Verdict.failed("RoundGap", f"round {c.round} after {previous.round}")
        if not directory.proves(c, (prev_leaf_hash(commitment_digest(previous)),), link.proof):
            return Verdict.failed("ChainBreak", f"round {c.round} does not chain")
    return Verdict.passed()


def verify_chain_head(chain: HolderChain, directory: KeyDirectory) -> Verdict:
    """BadSignature unless the head, the last commitment, verifies under the key bound at its round."""
    head = chain.commitments[-1]
    if not directory.verify_commitment(head):
        return Verdict.failed("BadSignature", f"round {head.round}")
    return Verdict.passed()


@dataclass(frozen=True)
class NodeRecord:
    """One committed round, made once.  A record with a tree has its state
    too; pruning replaces it with one that keeps only root and commitment."""

    commitment: Commitment
    state: Optional[RoundState] = None
    tree: Optional[MerkleTree] = None
    # The round's chain link, made with the record; None without a tree.
    link: Optional[ChainLink] = field(init=False, repr=False, compare=False)
    # Bytes the storage model counts: encoded commitment, root and, unless
    # pruned, the tree's leaf bytes.  The link, derived from the tree, is not.
    retained_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        link, leaf_bytes = None, 0
        if self.tree is not None:
            link = ChainLink(self.tree.prove_inclusion(0))
            leaf_bytes = self.tree.leaf_bytes_total
        object.__setattr__(self, "link", link)
        c = self.commitment
        object.__setattr__(self, "retained_bytes", len(c.to_bytes()) + len(c.root) + leaf_bytes)

    @property
    def round(self) -> int:
        return self.commitment.round

    @property
    def root(self) -> Digest:
        return self.commitment.root


class Node:
    """A single-writer state machine: queue inputs, build, exchange, repeat.

    The engine (or a test) drives the cycle per round:
      1. ``build`` the round tree from queued submissions/receipts,
      2. ``make_submission`` and deliver to the manifest partners,
      3. partners ``issue_receipt`` against their next tree,
      4. ``receive_receipt`` queues evidence for the round after next.
    """

    def __init__(self, label: str, keypair: KeyPair):
        self.label = label
        self.keypair = keypair
        self.node_id: NodeId = keypair.node_id
        # Keys a recovery replaced, each with the first round it no longer signs.
        self._retired_keys: list[tuple[int, KeyPair]] = []
        self.manifest: tuple[NodeId, ...] = ()
        self.records: list[NodeRecord] = []
        # The sum of the records' retained_bytes, kept as records are added and replaced.
        self.retained_bytes = 0
        self._pending_submissions: dict[tuple[NodeId, int], Submission] = {}
        self._pending_receipts: dict[tuple[NodeId, int], Receipt] = {}
        self.receipt_log: dict[tuple[NodeId, int], Receipt] = {}

    @property
    def next_round(self) -> int:
        return len(self.records)

    @property
    def latest(self) -> NodeRecord:
        if not self.records:
            raise InvariantViolationError("node has not built any round yet")
        return self.records[-1]

    def record_at(self, round_no: int) -> NodeRecord:
        if not 0 <= round_no < len(self.records):
            raise InvariantViolationError(f"no record for round {round_no}")
        return self.records[round_no]

    def rekey(self, keypair: KeyPair, from_round: int) -> None:
        """Sign rounds from ``from_round`` on with ``keypair``; earlier rounds keep their key."""
        self._retired_keys.append((from_round, self.keypair))
        self.keypair = keypair

    def keypair_at(self, round_no: int) -> KeyPair:
        """The key bound to round ``round_no``, which a rewrite of that round signs with."""
        for until_round, keypair in self._retired_keys:
            if round_no < until_round:
                return keypair
        return self.keypair

    def prev_digest(self) -> Digest:
        if not self.records:
            return ZERO_DIGEST
        return commitment_digest(self.records[-1].commitment)

    def set_manifest(self, ids: Iterable[NodeId]) -> None:
        self.manifest = tuple(sorted(set(ids)))

    def compose_state(
        self,
        payload: Expr,
        credentials: Sequence[Digest] = (),
        revocation: Optional[Sequence[Digest]] = None,
    ) -> RoundState:
        return RoundState(
            node_id=self.node_id,
            round=self.next_round,
            prev_commitment_digest=self.prev_digest(),
            payload=payload,
            manifest=self.manifest,
            entangled=tuple(self._pending_submissions[k] for k in sorted(self._pending_submissions)),
            evidence=tuple(self._pending_receipts[k] for k in sorted(self._pending_receipts)),
            credentials=tuple(sorted(credentials)),
            revocation=None if revocation is None else tuple(sorted(revocation)),
        )

    def build(
        self,
        payload: Expr,
        credentials: Sequence[Digest] = (),
        revocation: Optional[Sequence[Digest]] = None,
    ) -> NodeRecord:
        state = self.compose_state(payload, credentials, revocation)
        tree, commitment = build_round(state, self.keypair)
        record = NodeRecord(commitment=commitment, state=state, tree=tree)
        self.records.append(record)
        self.retained_bytes += record.retained_bytes
        self._pending_submissions.clear()
        self._pending_receipts.clear()
        return record

    def replace_record(self, round_no: int, record: NodeRecord) -> None:
        old = self.record_at(round_no)
        self.records[round_no] = record
        self.retained_bytes += record.retained_bytes - old.retained_bytes

    def prune_record(self, round_no: int) -> None:
        # Trust-anchor storage mode: keep only the root and the commitment.
        self.replace_record(round_no, NodeRecord(self.record_at(round_no).commitment))

    def make_submission(self) -> Submission:
        c = self.latest.commitment
        return submission_of(c, self.keypair.sign(_SUBMISSION_FIELDS.pack(c.node_id, c.round, c.root)))

    def receive_submission(self, sub: Submission, directory: KeyDirectory) -> Verdict:
        if not directory.verify_submission(sub):
            return Verdict.failed("BadSignature", f"submission from {sub.holder_id.hex()}")
        self._pending_submissions[(sub.holder_id, sub.holder_round)] = sub
        return Verdict.passed()

    def issue_receipt(self, sub: Submission) -> Receipt:
        """Acknowledge a submission entangled in the current round's tree."""
        record = self.latest
        if record.state is None or record.tree is None:
            raise InvariantViolationError("cannot issue receipts from a pruned record")
        if record.round - sub.holder_round > STALE_THRESHOLD:
            raise StaleSubmissionError(
                f"submission round {sub.holder_round} too old for issuer round {record.round}"
            )
        index = entangled_leaf_index(record.state, sub.holder_id, sub.holder_round)
        entangled = record.state.entangled[index - FIXED_LEAVES]
        if entangled.holder_root != sub.holder_root:
            raise NotEntangledError("entangled root differs from the submission")
        # The round's link, path and bytes, is shared by the round's receipts.
        paths = ReceiptPaths.of_round(record.tree.prove_inclusion(index), record.link)
        return Receipt(entangled, record.commitment, record.state.prev_commitment_digest, paths)

    def verify_receipt(self, receipt: Receipt, directory: KeyDirectory) -> Verdict:
        """Holder-side check of a fresh receipt, including issuer continuity."""
        if receipt.holder_id != self.node_id:
            return Verdict.failed("HolderMismatch", "receipt addressed to another node")
        try:
            expected_root = self.record_at(receipt.holder_round).root
        except InvariantViolationError:
            return Verdict.failed("HolderMismatch", f"no local round {receipt.holder_round}")
        if receipt.holder_root != expected_root:
            return Verdict.failed("ReceiptMismatch", "receipt attests a root this node never committed")
        verdict = check_receipt(receipt, directory)
        if not verdict:
            return verdict
        c = receipt.issuer_commitment
        prior = self.receipt_log.get((c.node_id, receipt.holder_round - 1))
        if prior is not None and prior.issuer_round + 1 == c.round:
            if commitment_digest(prior.issuer_commitment) != receipt.prev_digest:
                return Verdict.failed("ChainBreak", f"issuer {c.node_id.hex()} broke its chain")
        return Verdict.passed()

    def receive_receipt(self, receipt: Receipt, directory: KeyDirectory) -> Verdict:
        verdict = self.verify_receipt(receipt, directory)
        if verdict:
            self._pending_receipts[(receipt.issuer_id, receipt.holder_round)] = receipt
            self.receipt_log[(receipt.issuer_id, receipt.holder_round)] = receipt
        return verdict
