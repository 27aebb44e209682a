"""Mutation sweep over the proof verifiers' checks and the cost laws.

Each mutant below drops one verifier check, a shape rule that a proof
record holds when it is made, the anchor row check ``entmesh verify``
makes before an OK, or the forwarding that equivocation detection relies
on, makes one step cost more than a cost law allows, makes ``entmesh
prove`` stop its run before a round its proof reads is final, or lets
a run's signature memo answer for a triple that does not verify, by
rewriting one line of ``src/entmesh``.  For
each, the sweep copies ``src/`` to a temp directory, applies the rewrite
there and runs the tests named for it; a mutant is killed when one of
them fails.  The sweep fails if any mutant survives, if
a listed line is not found exactly once (so a refactor cannot retire a
mutant without this list saying so), or if the named tests do not all pass
on the unmutated copy first.  A check added to a verifier or a proof
record adds its mutant here, and so does a cost the cost laws are meant
to catch.

Run from anywhere, with the test dependencies installed:

    python tests/mutation_sweep.py

pytest does not collect this file: its name has no ``test_`` prefix.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/entmesh
    line: str  # the line, stripped of its indent, found exactly once in the file
    replacement: str  # what it becomes, at the same indent
    tests: tuple[str, ...]  # test ids, relative to the repository root


_ORDER = "tests/test_verify_order.py::TestProofsNoBuilderMakes::"
_HEADS = "tests/test_verify_order.py::TestForgedSignatureKeepsItsReason::"
_COST = "tests/test_cost_laws.py::"
_PROVE = "tests/test_cli.py::TestProveRunsTheRoundsItReads::"
_SHAPE = "tests/test_entangle.py::TestEachShapeRuleInOnePlace::test_one_text_however_made"
_CONTINUITY = "tests/test_entangle.py::TestIssuerContinuity::"
_WRITTEN = "tests/test_entangle.py::TestWrittenPrevDigests::"

MUTANTS = (
    Mutant(
        "chain: hop windows shift by one round per hop",
        "entangle.py",
        "if (hop.window_start, hop.window_end) != (base.window_start + i, base.window_end + i):",
        "if False:",
        (_ORDER + "test_unshifted_chain_is_a_broken_hop",),
    ),
    Mutant(
        "chain: hop i's issuer is hop i+1's holder",
        "entangle.py",
        "if i > 0 and proof.hops[i - 1].issuer_id != hop.holder_id:",
        "if False:",
        (_ORDER + "test_hops_from_two_branches_are_a_broken_hop",),
    ),
    Mutant(
        "holder chain: every commitment from the first commitment's node",
        "entangle.py",
        "if c.node_id != holder.holder_id:",
        "if False:",
        ("tests/test_entangle.py::TestLinkProof::test_chain_must_belong_to_holder",),
    ),
    Mutant(
        "holder chain: one commitment per window round and EVIDENCE_LAG more",
        "entangle.py",
        "if len(holder.holder_chain.commitments) != len(holder.rounds) + EVIDENCE_LAG:",
        "if False:",
        ("tests/test_entangle.py::TestHubCodec::test_verifier_refuses_a_decoded_hub_with_one_evidence_proof_of_four",),
    ),
    Mutant(
        "holder chain: a head with no key bound fails at its links, with no Ed25519 check",
        "entangle.py",
        "if verdict and call.directory.key_at(head.node_id, head.round) is None:",
        "if False:",
        ("tests/test_verify_order.py::TestSignatureCounts::test_head_with_no_key_bound_fails_at_its_links[chain-h0]",),
    ),
    Mutant(
        "link: its holder chain's head signature, checked last",
        "entangle.py",
        "return call.counted(_check_link(proof, trusted, call) and verify_chain_head(proof.holder_chain, call))",
        "return call.counted(_check_link(proof, trusted, call))",
        ("tests/test_verify_order.py::TestTheHeadVouchesForItsChain::test_link_across_a_key_rebind_verifies_under_the_heads_key",),
    ),
    Mutant(
        "link: one receipt per window round (LinkProof, when made)",
        "entangle.py",
        "if any(len(rnd.receipts) != 1 for rnd in self.rounds):",
        "if False:",
        ("tests/test_entangle.py::TestLinkProof::test_one_submission_per_round_required",),
    ),
    Mutant(
        "rounds: the trusted commitment is the named issuer's",
        "entangle.py",
        "if issuer_c.node_id != issuer_id:",
        "if False:",
        ("tests/test_entangle.py::TestLinkProof::test_named_issuer_must_be_the_trusted_one",),
    ),
    Mutant(
        "rounds: issuer continuity from the previous window round",
        "entangle.py",
        "if not written and not call.proves(issuer_c, (first_leaf,), paths.prev_inclusion):",
        "if False:",
        (
            _ORDER + "test_trust_log_with_an_equivocating_issuers_fork_breaks_the_issuer_chain",
            _CONTINUITY + "test_hub_over_a_trust_log_with_a_fork",
            _CONTINUITY + "test_chain_over_an_anchor_log_with_a_fork_at_the_last_hop",
        ),
    ),
    Mutant(
        "rounds: each round's evidence run folds in the holder tree EVIDENCE_LAG rounds on",
        "entangle.py",
        "if not call.proves(retaining, leaf_hashes, evidence):",
        "if False:",
        (
            "tests/test_entangle.py::TestLinkProof::test_evidence_proof_swap_rejected",
            "tests/test_entangle.py::TestHubProof::test_evidence_run_must_be_contiguous",
        ),
    ),
    Mutant(
        "receipt (check_receipt and every proof receipt): the submission leaf folds in the issuer tree",
        "node.py",
        "if not directory.proves(c, leaf_hashes[:1], paths.inclusion):",
        "if False:",
        (
            "tests/test_entangle.py::TestLinkProof::test_swapped_receipt_rejected",
            "tests/test_entangle.py::TestLinkProof::test_tampered_receipt_signature_rejected",
        ),
    ),
    Mutant(
        "receipt: the first leaf folds from its prev digest, in a proof the one written at the window's first round",
        "node.py",
        "if leaf_hashes[1:] and not directory.proves(c, leaf_hashes[1:], paths.prev_inclusion):",
        "if False:",
        (
            _WRITTEN + "test_every_bit_of_a_hubs_written_digests",
            _WRITTEN + "test_every_bit_of_a_chain_hops_written_digest",
        ),
    ),
    Mutant(
        "rounds: each issuer's prev digest in the first window round only (the proof, when made)",
        "entangle.py",
        "if len(rounds[0].prev_digests) != issuers or any(map(_prev_digests, rounds[1:])):",
        "if False:",
        (_SHAPE + "[first-round-without-its-prev-digests-fields]", _SHAPE + "[later-round-with-prev-digests-replace]"),
    ),
    Mutant(
        "hub: one manifest proof per round",
        "entangle.py",
        "if len(proof.manifest_proofs) != len(proof.rounds):",
        "if False:",
        ("tests/test_entangle.py::TestHubCodec::test_verifier_refuses_a_decoded_hub_without_manifest_proofs",),
    ),
    Mutant(
        "hub: the manifest in canonical order, no duplicates",
        "entangle.py",
        "if tuple(sorted(proof.manifest)) != proof.manifest or len(set(proof.manifest)) != len(proof.manifest):",
        "if False:",
        (_ORDER + "test_holder_signed_manifest_out_of_canonical_order",),
    ),
    Mutant(
        "hub: manifest proofs at index 2 (HubProof, when made)",
        "entangle.py",
        "at_leaf(proof, MANIFEST_LEAF_INDEX)",
        "pass",
        (_ORDER + "test_manifest_path_at_another_index_is_misplaced",),
    ),
    Mutant(
        "hub: a manifest of one link at least (HubProof, when made)",
        "entangle.py",
        "if not self.manifest:",
        "if False:",
        (_SHAPE + "[hub-of-an-empty-manifest-fields]",),
    ),
    Mutant(
        "hub: each round holds every committed issuer's receipt, which a hub held in memory may leave out",
        "entangle.py",
        "if any(len(rnd.receipts) != len(proof.manifest) for rnd in proof.rounds):",
        "if False:",
        ("tests/test_entangle.py::TestHubProof::test_dropping_any_link_is_detected",),
    ),
    Mutant(
        "hub: its holder chain's head signature, checked last",
        "entangle.py",
        "verdict = verify_chain_head(proof.holder_chain, call)",
        "verdict = Verdict.passed()",
        (_HEADS + "test_hub_holder_chain[-1]",),
    ),
    Mutant(
        "chain: every hop's head signature, not only the last hop's",
        "entangle.py",
        "for i in reversed(range(len(proof.hops))):",
        "for i in (len(proof.hops) - 1,):",
        (_HEADS + "test_chain_inner_hop[chain-entry]",),
    ),
    Mutant(
        "heads last: a head's leaf count that its link folds at too is checked by its signature before the evidence fold names it",
        "entangle.py",
        "if retaining is chain[-1] and _folds_at_another_leaf_count(retaining, leaf_hashes, evidence):",
        "if False:",
        (_HEADS + "test_head_at_a_leaf_count_its_link_folds_at[hub]",),
    ),
    Mutant(
        "decoder: a link or hub proof holds the window round that names its window (the proof, when made)",
        "entangle.py",
        "if not rounds:",
        "if False:",
        ("tests/test_entangle.py::TestProofCodec::test_proof_with_no_holder_chain_entry_or_window_round_refused[rounds-hub]",),
    ),
    Mutant(
        "decoder: a holder chain holds the commitment that names its holder (HolderChain, when made)",
        "node.py",
        "if not self.commitments:",
        "if False:",
        ("tests/test_entangle.py::TestProofCodec::test_proof_with_no_holder_chain_entry_or_window_round_refused[holder_chain-link]",),
    ),
    Mutant(
        "holder chain: one link per commitment after the first (HolderChain, when made)",
        "node.py",
        "if len(self.links) != len(self.commitments) - 1:",
        "if False:",
        ("tests/test_node.py::TestCommitmentChains::test_one_link_per_commitment_after_the_first",),
    ),
    Mutant(
        "chain: a hop at least (ChainProof, when made)",
        "entangle.py",
        "if not self.hops:",
        "if False:",
        (_SHAPE + "[chain-of-no-hop-fields]",),
    ),
    Mutant(
        "receipt: the prev-leaf path at index 0 (ReceiptPaths, when made with its bytes)",
        "node.py",
        "at_leaf(self.prev_inclusion, 0)",
        "pass",
        ("tests/test_node.py::TestSignedTreesNoBuilderMakes::test_receipt_whose_prev_leaf_proof_is_not_at_index_0",),
    ),
    Mutant(
        "chain rule (verify_chain_head, shared by audits and proofs): the head's signature",
        "node.py",
        "if not directory.verify_commitment(head):",
        "if False:",
        ("tests/test_verify_order.py::TestTheHeadVouchesForItsChain::test_inner_entry_with_a_bad_signature_under_a_signed_head[issuer]",),
    ),
    Mutant(
        "chain rule: each link's path at index 0 (ChainLink, when made with its bytes)",
        "node.py",
        "at_leaf(self.proof, 0)",
        "pass",
        ("tests/test_node.py::TestSignedTreesNoBuilderMakes::test_chain_link_whose_path_is_not_at_index_0",),
    ),
    Mutant(
        "chain rule (verify_chain_links, shared by audits and proofs): each link folds from the previous commitment",
        "node.py",
        "if not directory.proves(c, (prev_leaf_hash(commitment_digest(previous)),), link.proof):",
        "if False:",
        ("tests/test_node.py::TestCommitmentChains::test_link_folds_from_the_previous_commitment[commitment]",),
    ),
    Mutant(
        "verify: an OK needs every anchor row's signature, checked after the verdict",
        "cli.py",
        "check_anchor_signatures(args.trust, bundle)",
        "pass",
        ("tests/test_cli.py::TestTrustBundleFuzz::test_bundle_rules_checked_at_load[anchor-row-signature-flipped-verify]",),
    ),
    Mutant(
        "cost law: an inclusion proof slices its siblings, it does not rehash the tree",
        "hashtree.py",
        "return self.prove_range(index, index + 1)",
        "return ([sha256(_NODE_PREFIX + level[i : i + 64]) for level in self._levels[:-1] for i in range(0, len(level) - 63, 64)], self.prove_range(index, index + 1))[1]",
        (_COST + "test_hashing_and_bytes_grow_as_log_holders[sha256]",),
    ),
    Mutant(
        "cost law: the self-audit starts at round r - 1, not at round 0",
        "simnet/engine.py",
        "verdict = self._audit(label, r - 1)",
        "verdict = self._audit(label, 0)",
        (_COST + "test_work_per_node_round_is_flat_in_rounds[folds-centralized-10]",),
    ),
    Mutant(
        "cost law: the chain audit starts at the last passing head, not at round 0",
        "simnet/engine.py",
        "verdict = self._audit(label, self._audited.get(label, 0))",
        "verdict = self._audit(label, 0)",
        (_COST + "test_work_per_node_round_is_flat_in_rounds[folds-federated-3x3-18-audited]",),
    ),
    Mutant(
        "prove: one round more when a ForkHistory replaces the last round the proof reads",
        "simnet/engine.py",
        "rewritten = ForkHistory(node=label, round=round_no + 1) in faults",
        "rewritten = False",
        (_PROVE + "test_a_fork_of_the_last_round_read_runs_one_round_more[hub-holder]",),
    ),
    Mutant(
        "prove: a link or hub proof reads its holder's rounds up to end + EVIDENCE_LAG",
        "entangle.py",
        "return window[1] + EVIDENCE_LAG",
        "return window[1] + EVIDENCE_LAG - 1",
        (_PROVE + "test_hub_window_1_to_4_runs_7_of_10_rounds",),
    ),
    Mutant(
        "memo: a submission the run signs is learned with its own message",
        "simnet/engine.py",
        "self._learn_signed(node.keypair, sub)",
        "self._learn_signed(node.keypair, dataclasses.replace(node.latest.commitment, signature=sub.signature))",
        ("tests/test_simnet.py::TestSignatureMemo::test_every_remembered_triple_verifies[link.yaml]",),
    ),
    Mutant(
        "memo: a triple answers only under the key bound at the check's round",
        "simnet/engine.py",
        "return (key, message, signature) in self._known or Ed25519Scheme().verify(key, message, signature)",
        "return (message, signature) in {known[1:] for known in self._known} or Ed25519Scheme().verify(key, message, signature)",
        ("tests/test_simnet.py::TestSignatureMemo::test_a_learned_triple_never_answers_for_a_rebound_key",),
    ),
    Mutant(
        "detection: a node forwards the receipts its round retains",
        "simnet/engine.py",
        "for receipt in self.nodes[label].record_at(r).state.evidence:",
        "for receipt in ():",
        ("tests/test_simnet.py::TestEquivocation::test_fork_victim_detects_within_two_rounds",),
    ),
)


def _mutate(text: str, mutant: Mutant) -> str:
    lines = text.splitlines(keepends=True)
    found = [i for i, line in enumerate(lines) if line.strip() == mutant.line]
    if len(found) != 1:
        raise LookupError(f"{mutant.file}: the line is found {len(found)} times, not once: {mutant.line}")
    line = lines[found[0]]
    lines[found[0]] = line[: len(line) - len(line.lstrip())] + mutant.replacement + "\n"
    return "".join(lines)


def _pytest(src: Path, tests) -> int:
    """pytest's exit code for ``tests``, importing entmesh from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="entmesh-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(src)}
        where = subprocess.run(
            [sys.executable, "-c", "import entmesh; print(entmesh.__file__)"], env=env, capture_output=True, text=True
        ).stdout.strip()
        if not where.startswith(str(src)):
            print(f"entmesh imports from {where or '(nowhere)'}, not from the mutated copy")
            return 1
        try:
            mutated = [(m, _mutate((src / "entmesh" / m.file).read_text(), m)) for m in MUTANTS]
        except LookupError as exc:
            print(f"stale mutant: {exc}")
            return 1
        every_test = sorted({test for m in MUTANTS for test in m.tests})
        if _pytest(src, every_test) != 0:
            print("the listed tests do not all pass on the unmutated source")
            return 1
        survived = []
        for mutant, text in mutated:
            path = src / "entmesh" / mutant.file
            original = path.read_text()
            path.write_text(text)
            try:
                code = _pytest(src, mutant.tests)
            finally:
                path.write_text(original)
            status = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{status:9} {mutant.name}")
            if code != 1:
                survived.append(mutant.name)
        print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed")
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
