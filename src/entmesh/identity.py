"""Credentials, revocation, and key recovery on top of committed rounds.

A credential is an s-expression whose digest the issuing node commits as a
leaf.  Revocation is a single always-present leaf on issuing nodes holding
the sorted digests of every credential revoked so far, so both revocation
and non-revocation are provable against any round's root.

Two custody modes with different verification economics:

* issuer-controlled: the issuer tracks the credential and answers status
  queries; every check is visible to (and counted by) the issuer.
* holder-controlled: the issuer retains nothing after issuance.  Status is
  structurally not checkable and the issuer observes zero queries.

Key recovery rebinds a node id to a new key when enough guardians endorse
the replacement, per a threshold policy the node committed in advance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .hashtree import Digest, InclusionProof, leaf_hash, sha256
from .keys import KeyPair, NodeId
from .node import (
    Commitment,
    KeyDirectory,
    Node,
    NodeRecord,
    NotEntangledError,
    Verdict,
    _revocation_leaf,
    credential_leaf_index,
    revocation_leaf_index,
)
from .sexpr import Expr, unparse

__all__ = [
    "Credential",
    "CredentialMode",
    "CredentialRegistry",
    "Endorsement",
    "RecoveryCertificate",
    "RecoveryPolicy",
    "RevocationEvidence",
    "StatusReport",
    "UnknownCredentialError",
    "apply_recovery",
    "endorse_recovery",
    "verify_recovery",
    "verify_revocation_evidence",
]


class UnknownCredentialError(KeyError):
    pass


class CredentialMode(str, Enum):
    ISSUER_CONTROLLED = "issuer-controlled"
    HOLDER_CONTROLLED = "holder-controlled"


class CredentialStatus(str, Enum):
    VALID = "valid"
    REVOKED = "revoked"
    NOT_CHECKABLE = "not-checkable"


@dataclass(frozen=True)
class Credential:
    issuer_id: NodeId
    subject_id: NodeId
    claims: Expr
    issued_round: int
    mode: CredentialMode

    def expr(self) -> Expr:
        return (
            "credential",
            self.issuer_id,
            self.subject_id,
            self.claims,
            self.issued_round,
            self.mode.value,
        )

    def digest(self) -> Digest:
        return sha256(unparse(self.expr()).encode("utf-8"))


@dataclass(frozen=True)
class StatusReport:
    credential_digest: Digest
    status: CredentialStatus
    checked_round: Optional[int] = None
    # Rounds a verifier had to wait for the answer.  Issuer-controlled
    # queries are answered from live state, hence zero.
    latency_rounds: Optional[int] = None


@dataclass(frozen=True)
class RevocationEvidence:
    """Committed proof that a digest is (or is not) on the revocation list."""

    credential_digest: Digest
    revoked: bool
    revocation_list: tuple[Digest, ...]
    proof: InclusionProof
    commitment: Commitment


def verify_revocation_evidence(evidence: RevocationEvidence, trusted: Commitment) -> Verdict:
    c = evidence.commitment
    if c != trusted:
        return Verdict.failed("TrustMismatch", "evidence cites a different commitment")
    if not c.proves((leaf_hash(_revocation_leaf(evidence.revocation_list)),), evidence.proof):
        return Verdict.failed("EvidenceInvalid", "revocation leaf unproven")
    if list(evidence.revocation_list) != sorted(set(evidence.revocation_list)):
        return Verdict.failed("EvidenceInvalid", "revocation list not canonical")
    on_list = evidence.credential_digest in evidence.revocation_list
    if on_list != evidence.revoked:
        return Verdict.failed("EvidenceInvalid", "claimed status contradicts the list")
    return Verdict.passed()


class CredentialRegistry:
    """Issuer-side bookkeeping for one issuing node.

    Only issuer-controlled credentials are retained; holder-controlled ones
    pass through at issuance and leave no record here.  The registry also
    counts how many status queries the issuer got to observe, which is the
    measurable privacy difference between the two modes.
    """

    def __init__(self, node: Node):
        self.node = node
        self.issued: dict[Digest, Credential] = {}
        self.revoked: set[Digest] = set()
        self.observed_status_queries = 0
        self._pending_digests: list[Digest] = []

    def issue(
        self,
        subject_id: NodeId,
        claims: Expr,
        mode: CredentialMode,
    ) -> Credential:
        cred = Credential(
            issuer_id=self.node.node_id,
            subject_id=subject_id,
            claims=claims,
            issued_round=self.node.next_round,
            mode=mode,
        )
        digest = cred.digest()
        self._pending_digests.append(digest)
        if mode is CredentialMode.ISSUER_CONTROLLED:
            self.issued[digest] = cred
        return cred

    def commit_digest(self, digest: Digest) -> None:
        """Queue an externally built digest (e.g. a recovery policy) for the next round."""
        self._pending_digests.append(digest)

    def take_pending(self) -> tuple[Digest, ...]:
        pending = tuple(sorted(set(self._pending_digests)))
        self._pending_digests = []
        return pending

    def revocation_list(self) -> tuple[Digest, ...]:
        return tuple(sorted(self.revoked))

    def revoke(self, digest: Digest) -> None:
        if digest not in self.issued:
            raise UnknownCredentialError(digest.hex())
        self.revoked.add(digest)

    def check_status(self, credential: Credential) -> StatusReport:
        """Answer a status query as the issuer sees it."""
        digest = credential.digest()
        if credential.mode is CredentialMode.HOLDER_CONTROLLED:
            # Nothing on file: the issuer cannot answer and never sees the use.
            return StatusReport(credential_digest=digest, status=CredentialStatus.NOT_CHECKABLE)
        self.observed_status_queries += 1
        if digest not in self.issued:
            raise UnknownCredentialError(digest.hex())
        status = CredentialStatus.REVOKED if digest in self.revoked else CredentialStatus.VALID
        checked = self.node.next_round - 1 if self.node.records else None
        return StatusReport(
            credential_digest=digest,
            status=status,
            checked_round=checked,
            latency_rounds=0,
        )

    def revocation_evidence(self, digest: Digest, record: NodeRecord) -> RevocationEvidence:
        """Build committed evidence for the digest's status at ``record``'s round."""
        if record.state is None or record.tree is None:
            raise NotEntangledError(f"round {record.round} was pruned")
        if record.state.revocation is None:
            raise NotEntangledError("node commits no revocation list")
        return RevocationEvidence(
            credential_digest=digest,
            revoked=digest in record.state.revocation,
            revocation_list=record.state.revocation,
            proof=record.tree.prove_inclusion(revocation_leaf_index(record.state)),
            commitment=record.commitment,
        )

    def credential_proof(self, digest: Digest, record: NodeRecord) -> InclusionProof:
        if record.state is None or record.tree is None:
            raise NotEntangledError(f"round {record.round} was pruned")
        return record.tree.prove_inclusion(credential_leaf_index(record.state, digest))


@dataclass(frozen=True)
class RecoveryPolicy:
    """m-of-n guardian endorsement policy, committed before it is needed."""

    threshold: int
    guardians: tuple[NodeId, ...]

    def __post_init__(self):
        object.__setattr__(self, "guardians", tuple(sorted(set(self.guardians))))
        if not 1 <= self.threshold <= len(self.guardians):
            raise ValueError(f"threshold {self.threshold} out of range for {len(self.guardians)} guardians")

    def expr(self) -> Expr:
        return ("threshold", self.threshold) + self.guardians

    def digest(self) -> Digest:
        return sha256(unparse(self.expr()).encode("utf-8"))

    def decide(self, endorsed: Sequence[NodeId]) -> bool:
        """Whether the endorsing set holds ``threshold`` of the guardians, as ``expr()`` states."""
        return len(set(endorsed) & set(self.guardians)) >= self.threshold


def _recovery_message(old_id: NodeId, new_verify_key: bytes) -> bytes:
    return b"\x52" + old_id + new_verify_key


@dataclass(frozen=True)
class Endorsement:
    guardian_id: NodeId
    signature: bytes


def endorse_recovery(guardian: KeyPair, old_id: NodeId, new_verify_key: bytes) -> Endorsement:
    return Endorsement(
        guardian_id=guardian.node_id,
        signature=guardian.sign(_recovery_message(old_id, new_verify_key)),
    )


@dataclass(frozen=True)
class RecoveryCertificate:
    """A replacement key plus the endorsements that authorize it."""

    old_id: NodeId
    new_verify_key: bytes
    policy: RecoveryPolicy
    endorsements: tuple[Endorsement, ...]
    effective_round: int


def verify_recovery(
    cert: RecoveryCertificate,
    directory: KeyDirectory,
    policy_digest: Optional[Digest] = None,
) -> Verdict:
    """Check endorsements and decide by the committed policy.

    ``policy_digest``, when given, pins the certificate's policy to the one
    the node committed; a substituted policy fails even if self-consistent.
    """
    if policy_digest is not None and cert.policy.digest() != policy_digest:
        return Verdict.failed("PolicyMismatch", "certificate policy is not the committed one")
    message = _recovery_message(cert.old_id, cert.new_verify_key)
    endorsed: list[NodeId] = []
    seen: set[NodeId] = set()
    for endorsement in cert.endorsements:
        guardian = endorsement.guardian_id
        if guardian not in cert.policy.guardians:
            return Verdict.failed("UnknownGuardian", guardian.hex())
        if guardian in seen:
            return Verdict.failed("DuplicateGuardian", guardian.hex())
        seen.add(guardian)
        if not directory.verify_signature(guardian, cert.effective_round, message, endorsement.signature):
            return Verdict.failed("BadSignature", f"guardian {guardian.hex()}")
        endorsed.append(guardian)
    if not cert.policy.decide(endorsed):
        return Verdict.failed(
            "PolicyUnsatisfied",
            f"{len(endorsed)} of {len(cert.policy.guardians)} guardians endorsed, "
            f"threshold is {cert.policy.threshold}",
        )
    return Verdict.passed()


def apply_recovery(
    node: Node,
    directory: KeyDirectory,
    cert: RecoveryCertificate,
    new_keypair: KeyPair,
    policy_digest: Optional[Digest] = None,
) -> Verdict:
    """Validate a certificate and swap the node's signing key.

    The node id never changes: it stays the fingerprint of the genesis key,
    and the directory resolves rounds >= the effective round to the new key.
    """
    if cert.old_id != node.node_id:
        return Verdict.failed("HolderMismatch", "certificate names a different node")
    if new_keypair.verify_key != cert.new_verify_key:
        return Verdict.failed("KeyMismatch", "keypair does not match the certificate")
    verdict = verify_recovery(cert, directory, policy_digest)
    if not verdict:
        return verdict
    directory.rebind(node.node_id, cert.new_verify_key, from_round=cert.effective_round)
    node.rekey(new_keypair, cert.effective_round)
    return Verdict.passed()
