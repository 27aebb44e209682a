"""Credentials, revocation evidence, and guardian-based key recovery."""

import dataclasses
import itertools

import pytest

from entmesh.hashtree import sha256
from entmesh.identity import (
    Credential,
    CredentialMode,
    CredentialRegistry,
    CredentialStatus,
    RecoveryCertificate,
    RecoveryPolicy,
    UnknownCredentialError,
    apply_recovery,
    endorse_recovery,
    verify_recovery,
    verify_revocation_evidence,
)
from entmesh.keys import keypair_from_seed
from entmesh.node import KeyDirectory, Node, NotEntangledError
from entmesh.hashtree import leaf_hash, verify_inclusion


def issuing_node(label="issuer"):
    node = Node(label, keypair_from_seed(f"id:{label}"))
    return node, CredentialRegistry(node)


def advance(node, registry, rounds=1):
    for _ in range(rounds):
        node.build(
            ("tick", node.next_round),
            credentials=registry.take_pending(),
            revocation=registry.revocation_list(),
        )


class TestCredential:
    def test_digest_stable(self):
        node, _ = issuing_node()
        subject = keypair_from_seed("subject").node_id
        a = Credential(node.node_id, subject, ("role", "auditor"), 3, CredentialMode.ISSUER_CONTROLLED)
        b = Credential(node.node_id, subject, ("role", "auditor"), 3, CredentialMode.ISSUER_CONTROLLED)
        assert a.digest() == b.digest()

    def test_digest_separates_every_field(self):
        node, _ = issuing_node()
        subject = keypair_from_seed("subject").node_id
        base = Credential(node.node_id, subject, ("role", "auditor"), 3, CredentialMode.ISSUER_CONTROLLED)
        variants = [
            dataclasses.replace(base, claims=("role", "clerk")),
            dataclasses.replace(base, issued_round=4),
            dataclasses.replace(base, mode=CredentialMode.HOLDER_CONTROLLED),
            dataclasses.replace(base, subject_id=keypair_from_seed("other").node_id),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1


class TestRegistry:
    def test_issuer_controlled_lifecycle(self):
        node, reg = issuing_node()
        subject = keypair_from_seed("subject").node_id
        cred = reg.issue(subject, ("role", "auditor"), CredentialMode.ISSUER_CONTROLLED)
        advance(node, reg)

        report = reg.check_status(cred)
        assert report.status is CredentialStatus.VALID
        assert report.latency_rounds == 0
        assert reg.observed_status_queries == 1

        reg.revoke(cred.digest())
        advance(node, reg)
        report = reg.check_status(cred)
        assert report.status is CredentialStatus.REVOKED
        assert reg.observed_status_queries == 2

    def test_holder_controlled_is_not_checkable(self):
        node, reg = issuing_node()
        subject = keypair_from_seed("subject").node_id
        cred = reg.issue(subject, ("role", "member"), CredentialMode.HOLDER_CONTROLLED)
        advance(node, reg)

        report = reg.check_status(cred)
        assert report.status is CredentialStatus.NOT_CHECKABLE
        # The issuer holds nothing and observes nothing.
        assert reg.observed_status_queries == 0
        assert cred.digest() not in reg.issued
        with pytest.raises(UnknownCredentialError):
            reg.revoke(cred.digest())

    def test_holder_controlled_digest_still_committed(self):
        # Privacy cuts the issuer's ledger entry, not the commitment: the
        # digest still lands in the round tree so the holder can prove issuance.
        node, reg = issuing_node()
        subject = keypair_from_seed("subject").node_id
        cred = reg.issue(subject, ("role", "member"), CredentialMode.HOLDER_CONTROLLED)
        advance(node, reg)
        proof = reg.credential_proof(cred.digest(), node.record_at(0))
        leaf = bytes([0x06]) + cred.digest()
        c = node.record_at(0).commitment
        assert verify_inclusion([leaf_hash(leaf)], proof, c.leaf_count, c.root)

    def test_pending_digests_sorted_into_one_round(self):
        node, reg = issuing_node()
        subjects = [keypair_from_seed(f"s{i}").node_id for i in range(3)]
        for s in subjects:
            reg.issue(s, ("claim",), CredentialMode.ISSUER_CONTROLLED)
        advance(node, reg)
        committed = node.record_at(0).state.credentials
        assert len(committed) == 3
        assert list(committed) == sorted(committed)
        assert reg.take_pending() == ()

    def test_revoke_unknown_raises(self):
        _, reg = issuing_node()
        with pytest.raises(UnknownCredentialError):
            reg.revoke(sha256(b"ghost"))


class TestRevocationEvidence:
    def make(self):
        node, reg = issuing_node()
        subject = keypair_from_seed("subject").node_id
        cred = reg.issue(subject, ("role", "auditor"), CredentialMode.ISSUER_CONTROLLED)
        advance(node, reg, rounds=2)  # rounds 0, 1: valid
        reg.revoke(cred.digest())
        advance(node, reg, rounds=2)  # rounds 2, 3: revoked
        return node, reg, cred

    def test_status_history_is_provable(self):
        node, reg, cred = self.make()
        digest = cred.digest()

        before = reg.revocation_evidence(digest, node.record_at(1))
        assert before.revoked is False
        assert verify_revocation_evidence(before, node.record_at(1).commitment)

        after = reg.revocation_evidence(digest, node.record_at(2))
        assert after.revoked is True
        assert verify_revocation_evidence(after, node.record_at(2).commitment)

    def test_lying_about_status_fails(self):
        node, reg, cred = self.make()
        evidence = reg.revocation_evidence(cred.digest(), node.record_at(2))
        lie = dataclasses.replace(evidence, revoked=False)
        verdict = verify_revocation_evidence(lie, node.record_at(2).commitment)
        assert verdict.reason == "EvidenceInvalid"

    def test_foreign_commitment_rejected(self):
        node, reg, cred = self.make()
        evidence = reg.revocation_evidence(cred.digest(), node.record_at(2))
        verdict = verify_revocation_evidence(evidence, node.record_at(3).commitment)
        assert (verdict.reason, verdict.detail) == ("EvidenceInvalid", "revocation leaf unproven")

    def test_padded_list_rejected(self):
        node, reg, cred = self.make()
        evidence = reg.revocation_evidence(cred.digest(), node.record_at(2))
        padded = dataclasses.replace(
            evidence, revocation_list=evidence.revocation_list + (sha256(b"extra"),)
        )
        verdict = verify_revocation_evidence(padded, node.record_at(2).commitment)
        assert verdict.reason == "EvidenceInvalid"

    def test_unlisted_node_cannot_testify(self):
        solo = Node("plain", keypair_from_seed("id:plain"))
        solo.build(("x",))  # no revocation section at all
        reg = CredentialRegistry(solo)
        with pytest.raises(NotEntangledError):
            reg.revocation_evidence(sha256(b"any"), solo.latest)


class TestRecoveryPolicy:
    def test_threshold_bounds(self):
        guardians = tuple(keypair_from_seed(f"g{i}").node_id for i in range(3))
        with pytest.raises(ValueError):
            RecoveryPolicy(0, guardians)
        with pytest.raises(ValueError):
            RecoveryPolicy(4, guardians)

    def test_guardians_deduped_and_sorted(self):
        ids = [keypair_from_seed(f"g{i}").node_id for i in range(3)]
        policy = RecoveryPolicy(2, (ids[1], ids[0], ids[1], ids[2]))
        assert policy.guardians == tuple(sorted(ids))

    def test_decide_counts_distinct_guardians(self):
        ids = [keypair_from_seed(f"g{i}").node_id for i in range(3)]
        policy = RecoveryPolicy(2, tuple(ids))
        assert policy.decide([ids[0], ids[2]])
        assert not policy.decide([ids[0]])
        assert not policy.decide([keypair_from_seed("stranger").node_id] * 2)

    def test_digest_binds_threshold_and_set(self):
        ids = tuple(keypair_from_seed(f"g{i}").node_id for i in range(3))
        assert RecoveryPolicy(2, ids).digest() != RecoveryPolicy(3, ids).digest()
        assert RecoveryPolicy(2, ids).digest() != RecoveryPolicy(2, ids[:2]).digest()


class RecoverySetup:
    def __init__(self, n=3, m=2):
        self.owner = Node("owner", keypair_from_seed("rec:owner"))
        self.owner.build(("genesis",))
        self.guardians = [keypair_from_seed(f"rec:g{i}") for i in range(n)]
        self.directory = KeyDirectory()
        self.directory.register(self.owner.node_id, self.owner.keypair.verify_key)
        for g in self.guardians:
            self.directory.register(g.node_id, g.verify_key)
        self.policy = RecoveryPolicy(m, tuple(g.node_id for g in self.guardians))
        self.new_keypair = keypair_from_seed("rec:replacement")

    def certificate(self, endorsers, effective_round=2, new_key=None):
        new_key = new_key if new_key is not None else self.new_keypair.verify_key
        endorsements = tuple(
            endorse_recovery(g, self.owner.node_id, new_key) for g in endorsers
        )
        return RecoveryCertificate(
            old_id=self.owner.node_id,
            new_verify_key=new_key,
            policy=self.policy,
            endorsements=endorsements,
            effective_round=effective_round,
        )


class TestRecoveryVerdicts:
    def test_threshold_met(self):
        setup = RecoverySetup()
        cert = setup.certificate(setup.guardians[:2])
        assert verify_recovery(cert, setup.directory, policy_digest=setup.policy.digest())

    def test_threshold_unmet(self):
        setup = RecoverySetup()
        cert = setup.certificate(setup.guardians[:1])
        verdict = verify_recovery(cert, setup.directory, policy_digest=setup.policy.digest())
        assert verdict.reason == "PolicyUnsatisfied"

    def test_pinned_policy_must_match(self):
        setup = RecoverySetup()
        cert = setup.certificate(setup.guardians[:2])
        other = RecoveryPolicy(1, setup.policy.guardians)
        verdict = verify_recovery(cert, setup.directory, policy_digest=other.digest())
        assert verdict.reason == "PolicyMismatch"
        assert verify_recovery(cert, setup.directory, policy_digest=setup.policy.digest())

    def test_unknown_guardian_rejected(self):
        setup = RecoverySetup()
        outsider = keypair_from_seed("rec:outsider")
        setup.directory.register(outsider.node_id, outsider.verify_key)
        cert = setup.certificate([setup.guardians[0], outsider])
        verdict = verify_recovery(cert, setup.directory, policy_digest=setup.policy.digest())
        assert verdict.reason == "UnknownGuardian"

    def test_duplicate_endorsement_rejected(self):
        setup = RecoverySetup()
        cert = setup.certificate([setup.guardians[0], setup.guardians[0]])
        verdict = verify_recovery(cert, setup.directory, policy_digest=setup.policy.digest())
        assert verdict.reason == "DuplicateGuardian"

    def test_endorsement_binds_the_new_key(self):
        setup = RecoverySetup()
        cert = setup.certificate(setup.guardians[:2])
        swapped = dataclasses.replace(
            cert, new_verify_key=keypair_from_seed("rec:evil").verify_key
        )
        verdict = verify_recovery(swapped, setup.directory, policy_digest=setup.policy.digest())
        assert verdict.reason == "BadSignature"

    def test_exhaustive_small_truth_table(self):
        setup = RecoverySetup(n=3, m=2)
        for size in range(4):
            for subset in itertools.combinations(setup.guardians, size):
                cert = setup.certificate(list(subset))
                assert bool(verify_recovery(cert, setup.directory, policy_digest=setup.policy.digest())) == (size >= 2)


class TestApplyRecovery:
    def test_key_swap_preserves_identity(self):
        setup = RecoverySetup()
        old_commitment = setup.owner.latest.commitment
        genesis_id = setup.owner.node_id
        setup.owner.build(("round-1",))

        cert = setup.certificate(setup.guardians[:2], effective_round=2)
        verdict = apply_recovery(setup.owner, setup.directory, cert, setup.new_keypair, policy_digest=setup.policy.digest())
        assert verdict

        assert setup.owner.node_id == genesis_id
        record = setup.owner.build(("post-recovery",))
        assert record.commitment.node_id == genesis_id
        assert setup.directory.verify_commitment(record.commitment)
        # History signed with the genesis key still verifies.
        assert setup.directory.verify_commitment(old_commitment)

    def test_wrong_node_rejected(self):
        setup = RecoverySetup()
        stranger = Node("stranger", keypair_from_seed("rec:stranger"))
        cert = setup.certificate(setup.guardians[:2])
        verdict = apply_recovery(stranger, setup.directory, cert, setup.new_keypair, policy_digest=setup.policy.digest())
        assert verdict.reason == "HolderMismatch"

    def test_mismatched_keypair_rejected(self):
        setup = RecoverySetup()
        cert = setup.certificate(setup.guardians[:2])
        wrong = keypair_from_seed("rec:wrong")
        verdict = apply_recovery(setup.owner, setup.directory, cert, wrong, policy_digest=setup.policy.digest())
        assert verdict.reason == "KeyMismatch"

    def test_failed_verification_leaves_binding_alone(self):
        setup = RecoverySetup()
        cert = setup.certificate(setup.guardians[:1], effective_round=2)
        verdict = apply_recovery(setup.owner, setup.directory, cert, setup.new_keypair, policy_digest=setup.policy.digest())
        assert verdict.reason == "PolicyUnsatisfied"
        assert setup.directory.key_at(setup.owner.node_id, 5) == keypair_from_seed("rec:owner").verify_key
