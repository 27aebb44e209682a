"""Acceptance gate: ten system-level checks, one verdict line each.

Every test prints a single ``[acceptance] PASS ...`` or ``FAIL ...`` line
past the capture machinery, then asserts.  The suite exercises bundled
scenarios end to end rather than internals: figure-scale reproductions,
the one-hop-per-round latency law, constant anchor storage, equivocation
detection, transitive commitment on an anchorless ring, bit-flip tamper
resistance, the guardian recovery threshold, both revocation postures,
run determinism, and linear cost scaling.
"""

import dataclasses
import time
from itertools import combinations
from pathlib import Path
from statistics import correlation

import pytest

from entmesh.cli import main
from entmesh.config import load_config, make_simulation
from entmesh.entangle import (
    ChainProof,
    HubProof,
    LinkProof,
    build_chain_proof,
    build_hub_proof,
    build_link_proof,
    build_root_path,
    decode_proof,
    encode_proof,
    verify_chain,
    verify_hub,
    verify_link,
    verify_root_path,
)
from entmesh.identity import (
    CredentialMode,
    CredentialStatus,
    RecoveryCertificate,
    RecoveryPolicy,
    endorse_recovery,
    verify_recovery,
)
from entmesh.keys import keypair_from_seed
from entmesh.node import KeyDirectory
from entmesh.sexpr import parse
from entmesh.simnet import (
    Equivocate,
    Simulation,
    centralized,
    chain,
    federated,
    measure_latency,
    ring,
)
from entmesh.wire import WireError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def announce(capsys):
    def _announce(criterion: str, ok: bool, detail: str):
        line = f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}: {detail}"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _announce


def _run_scenario(name: str) -> Simulation:
    sim = make_simulation(load_config(SCENARIOS / name))
    sim.run()
    return sim


def _anchor_log(sim: Simulation, label: str) -> dict:
    return {record.round: record.commitment for record in sim.nodes[label].records}


def test_01_figure_reproduction(announce):
    problems = []
    details = []

    t0 = time.perf_counter()
    sim = _run_scenario("link.yaml")
    link = build_link_proof(
        sim.nodes["h0"].records, sim.nodes["hub"].node_id, (1, 4), sim.nodes["h0"].receipt_log
    )
    verdict = verify_link(link, _anchor_log(sim, "hub"), sim.directory)
    elapsed = time.perf_counter() - t0
    if len(link.rounds) != 4:
        problems.append(f"link carries {len(link.rounds)} receipts")
    if not verdict:
        problems.append(f"link proof failed: {verdict.reason}")
    if elapsed >= 1.0:
        problems.append(f"link scenario took {elapsed:.2f}s")
    details.append(f"link 4 receipts {elapsed * 1000:.0f}ms")

    t0 = time.perf_counter()
    sim = _run_scenario("hub.yaml")
    hub = build_hub_proof(sim.nodes["center"].records, (1, 4), sim.nodes["center"].receipt_log)
    trusted = {sim.nodes[f"p{i}"].node_id: _anchor_log(sim, f"p{i}") for i in range(5)}
    verdict = verify_hub(hub, trusted, sim.directory)
    elapsed = time.perf_counter() - t0
    if len(hub.manifest) != 5:
        problems.append(f"hub carries {len(hub.manifest)} links")
    if not verdict:
        problems.append(f"hub proof failed: {verdict.reason}")
    for drop in range(5):
        rounds = tuple(rnd._replace(receipts=rnd.receipts[:drop] + rnd.receipts[drop + 1 :]) for rnd in hub.rounds)
        partial = dataclasses.replace(hub, rounds=rounds)
        partial_verdict = verify_hub(partial, trusted, sim.directory)
        if partial_verdict or partial_verdict.reason != "ManifestMismatch":
            problems.append(f"dropping link {drop} gave {partial_verdict.reason}")
    if elapsed >= 1.0:
        problems.append(f"hub scenario took {elapsed:.2f}s")
    details.append(f"hub 5 links, 5/5 drops caught, {elapsed * 1000:.0f}ms")

    t0 = time.perf_counter()
    sim = _run_scenario("chain.yaml")
    path = sim.path_to_anchor("h0")
    ids = [sim.nodes[label].node_id for label in path]
    chained = build_chain_proof(sim.records_by_id(), sim.receipts_by_id(), ids, 1, 2)
    verdict = verify_chain(chained, _anchor_log(sim, "root"), sim.directory)
    elapsed = time.perf_counter() - t0
    if len(chained.hops) != 4:
        problems.append(f"chain carries {len(chained.hops)} hops")
    if not verdict:
        problems.append(f"chain proof failed: {verdict.reason}")
    if elapsed >= 1.0:
        problems.append(f"chain scenario took {elapsed:.2f}s")
    details.append(f"chain 4 hops {elapsed * 1000:.0f}ms")

    announce("figure-reproduction", not problems, "; ".join(problems or details))


def test_02_latency_law(announce):
    failures = []
    checked = 0
    for hops in range(1, 7):
        sim = Simulation(chain(hops), rounds=10, seed=20 + hops).run()
        path = sim.path_to_anchor("h0")
        ids = [sim.nodes[label].node_id for label in path]
        anchor_records = sim.nodes["root"].records
        # Evidence for the last hop round r + k - 1 lands two rounds later,
        # so a 10-round run supports probes up to r = 8 - k.
        for r in range(9 - hops):
            proof = build_chain_proof(sim.records_by_id(), sim.receipts_by_id(), ids, r, 1)
            first = None
            for cut in range(r, 10):
                trusted = {
                    record.round: record.commitment
                    for record in anchor_records
                    if record.round <= cut
                }
                if verify_chain(proof, trusted, sim.directory):
                    first = cut
                    break
            checked += 1
            if first != r + hops:
                failures.append(f"k={hops} r={r}: first verifying anchor round {first}")
            if measure_latency(sim, "h0", r) != hops:
                failures.append(f"k={hops} r={r}: measured latency off")
    detail = f"{checked} (r, k) points, first verifying anchor round == r + k at every one"
    announce("latency-law", not failures, "; ".join(failures) or detail)


def test_03_storage_law(announce):
    problems = []
    footprints = {}
    for holders in (1, 10, 100):
        sim = Simulation(centralized(holders), rounds=10, seed=3).run()
        per_round = []
        for record in sim.nodes["hub"].records:
            if record.state is not None:
                problems.append(f"{holders} holders: round {record.round} not pruned")
            per_round.append((len(record.commitment.root), len(record.commitment.to_bytes())))
        footprints[holders] = per_round
    digest_sizes = {size for rounds in footprints.values() for size, _ in rounds}
    commit_sizes = {size for rounds in footprints.values() for _, size in rounds}
    if digest_sizes != {32}:
        problems.append(f"digest sizes {sorted(digest_sizes)}")
    if len(commit_sizes) != 1:
        problems.append(f"commitment sizes vary: {sorted(commit_sizes)}")
    if not (footprints[1] == footprints[10] == footprints[100]):
        problems.append("per-round footprints differ across holder counts")
    per_round_bytes = sum(footprints[1][0])
    detail = (
        f"anchor keeps 32-byte digest + {commit_sizes.pop()}-byte commitment per round "
        f"({per_round_bytes} bytes), identical for 1/10/100 holders"
    )
    announce("storage-law", not problems, "; ".join(problems) or detail)


def test_04_equivocation_detection(announce):
    detected = 0
    total = 0
    failures = []
    for position, offender in enumerate(("m1-0", "m1-1", "m1-2")):
        victim = f"h{position}"
        for seed in range(10):
            sim = Simulation(
                federated(2, 3, 9),
                rounds=8,
                seed=seed,
                faults=[Equivocate(offender, 3, (victim,))],
            ).run()
            hits = [
                event
                for event in sim.detected(offender)
                if event["offender_round"] == 3
                and event["detected_round"] - event["offender_round"] <= 2
            ]
            total += 1
            if hits:
                detected += 1
            else:
                failures.append(f"{offender} seed {seed} undetected")
    announce(
        "equivocation-detection",
        detected == total == 30,
        "; ".join(failures) or f"{detected}/{total} forks detected within 2 rounds",
    )


def test_05_transitive_commitment(announce):
    sim = Simulation(ring(6, mutual=True), rounds=4, seed=5).run()
    records = sim.records_by_id()
    good = 0
    failures = []
    labels = sim.topology.labels
    for start_label in labels:
        for end_label in labels:
            start = sim.nodes[start_label]
            end = sim.nodes[end_label]
            path = build_root_path(records, (start.node_id, 0), (end.node_id, 3))
            if path is None:
                failures.append(f"no path {start_label} -> {end_label}")
                continue
            start_root = start.records[0].commitment.root
            end_root = end.records[3].commitment.root
            if verify_root_path(path, start_root, end_root):
                good += 1
            else:
                failures.append(f"path {start_label} -> {end_label} does not verify")
    announce(
        "transitive-commitment",
        good == 36,
        "; ".join(failures) or f"{good}/36 ordered pairs commit round-0 roots after 3 rounds",
    )


def test_06_tamper_suite(announce):
    link_sim = _run_scenario("link.yaml")
    hub_sim = _run_scenario("hub.yaml")
    chain_sim = _run_scenario("chain.yaml")

    blobs = []
    blobs.append(
        encode_proof(
            build_link_proof(
                link_sim.nodes["h0"].records,
                link_sim.nodes["hub"].node_id,
                (1, 4),
                link_sim.nodes["h0"].receipt_log,
            )
        )
    )
    blobs.append(
        encode_proof(
            build_hub_proof(
                hub_sim.nodes["center"].records, (1, 4), hub_sim.nodes["center"].receipt_log
            )
        )
    )
    chain_path = chain_sim.path_to_anchor("h0")
    chain_ids = [chain_sim.nodes[label].node_id for label in chain_path]
    blobs.append(
        encode_proof(
            build_chain_proof(
                chain_sim.records_by_id(), chain_sim.receipts_by_id(), chain_ids, 1, 2
            )
        )
    )

    anchor_logs = {}
    directories = []
    for sim in (link_sim, hub_sim, chain_sim):
        directories.append(sim.directory)
        for label in sim.topology.anchors:
            anchor_logs[sim.nodes[label].node_id] = _anchor_log(sim, label)

    def accepts(blob: bytes) -> bool:
        try:
            proof = decode_proof(blob)
        except (WireError, ValueError):
            return False
        for directory in directories:
            if isinstance(proof, LinkProof):
                log = anchor_logs.get(proof.issuer_id)
                if log is not None and verify_link(proof, log, directory):
                    return True
            elif isinstance(proof, HubProof):
                if verify_hub(proof, anchor_logs, directory):
                    return True
            elif isinstance(proof, ChainProof):
                log = anchor_logs.get(proof.anchor_id)
                if log is not None and verify_chain(proof, log, directory):
                    return True
        return False

    problems = []
    for blob in blobs:
        if not accepts(blob):
            problems.append("pristine proof rejected, harness is broken")

    flips = 0
    false_accepts = 0
    for blob in blobs:
        bits = len(blob) * 8
        stride = max(1, bits // 3400)
        for position in range(0, bits, stride):
            mutated = bytearray(blob)
            mutated[position // 8] ^= 1 << (position % 8)
            flips += 1
            if accepts(bytes(mutated)):
                false_accepts += 1
    if flips < 10_000:
        problems.append(f"only {flips} mutations tried")
    if false_accepts:
        problems.append(f"{false_accepts} tampered proofs accepted")
    announce(
        "tamper-suite",
        not problems,
        "; ".join(problems) or f"{flips} single-bit mutations, 0 false accepts",
    )


def test_07_recovery_truth_table(announce):
    failures = []
    trials = 0
    for size in range(6):
        for subset in combinations(range(5), size):
            owner = keypair_from_seed("accept7:owner")
            guardians = [keypair_from_seed(f"accept7:g{i}") for i in range(5)]
            replacement = keypair_from_seed("accept7:replacement")
            directory = KeyDirectory()
            directory.register(owner.node_id, owner.verify_key)
            for keypair in guardians:
                directory.register(keypair.node_id, keypair.verify_key)
            policy = RecoveryPolicy(
                threshold=3, guardians=tuple(keypair.node_id for keypair in guardians)
            )
            cert = RecoveryCertificate(
                old_id=owner.node_id,
                new_verify_key=replacement.verify_key,
                policy=policy,
                endorsements=tuple(
                    endorse_recovery(guardians[i], owner.node_id, replacement.verify_key)
                    for i in subset
                ),
                effective_round=4,
            )
            verdict = verify_recovery(cert, directory, policy_digest=policy.digest())
            trials += 1
            if bool(verdict) != (len(subset) >= 3):
                failures.append(f"subset {subset}: {verdict.reason or 'accepted'}")
    announce(
        "recovery-truth-table",
        trials == 32 and not failures,
        "; ".join(failures) or "32/32 endorsement subsets decided by the 3-of-5 threshold",
    )


def test_08_revocation_spectrum(announce):
    sim = Simulation(
        centralized(2), rounds=10, seed=8, credential_issuers=("hub", "h1"), prune_anchors=False
    )
    issuer_reg = sim.registry("hub")
    holder_reg = sim.registry("h1")
    creds = {}
    reports = {"checkable": [], "private": []}

    def issue(s):
        creds["checkable"] = issuer_reg.issue(
            s.nodes["h0"].node_id, parse("(role auditor)"), CredentialMode.ISSUER_CONTROLLED
        )
        creds["private"] = holder_reg.issue(
            s.nodes["h0"].node_id, parse("(role member)"), CredentialMode.HOLDER_CONTROLLED
        )

    sim.at(2, issue, phase="pre")
    sim.at(5, lambda s: issuer_reg.revoke(creds["checkable"].digest()), phase="pre")
    for round_no in range(3, 10):
        def check(s, round_no=round_no):
            reports["checkable"].append((round_no, issuer_reg.check_status(creds["checkable"])))
            reports["private"].append((round_no, holder_reg.check_status(creds["private"])))

        sim.at(round_no, check, phase="post")
    sim.run()

    problems = []
    for round_no, report in reports["checkable"]:
        expected = CredentialStatus.REVOKED if round_no >= 5 else CredentialStatus.VALID
        if report.status is not expected:
            problems.append(f"round {round_no}: {report.status.value}")
        if report.latency_rounds != 0:
            problems.append(f"round {round_no}: latency {report.latency_rounds}")
    for round_no, report in reports["private"]:
        if report.status is not CredentialStatus.NOT_CHECKABLE:
            problems.append(f"private credential answered at round {round_no}")
    if issuer_reg.observed_status_queries != 7:
        problems.append(f"issuer observed {issuer_reg.observed_status_queries} queries, wanted 7")
    if holder_reg.observed_status_queries != 0:
        problems.append(f"holder-controlled issuer observed {holder_reg.observed_status_queries}")
    detail = (
        "issuer-controlled: revoked exactly from round 5, latency 0, 7/7 queries observed; "
        "holder-controlled: never checkable, 0 queries observed"
    )
    announce("revocation-spectrum", not problems, "; ".join(problems) or detail)


def test_09_determinism(announce, tmp_path):
    mismatches = []
    scenarios = sorted(SCENARIOS.glob("*.yaml"))
    for scenario in scenarios:
        out_a = tmp_path / f"{scenario.stem}-a"
        out_b = tmp_path / f"{scenario.stem}-b"
        assert main(["simulate", "--config", str(scenario), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(scenario), "--out", str(out_b)]) == 0
        for name in ("events.jsonl", "metrics.jsonl"):
            if (out_a / name).read_bytes() != (out_b / name).read_bytes():
                mismatches.append(f"{scenario.stem}/{name}")
    announce(
        "determinism",
        bool(scenarios) and not mismatches,
        "; ".join(mismatches)
        or f"{len(scenarios)} scenarios, event and metrics ledgers byte-identical on rerun",
    )


def test_10_cost_scaling(announce):
    link_counts = []
    bytes_per_round = []
    for size in (5, 10, 20, 40):
        sim = Simulation(ring(size), rounds=8, seed=10).run()
        link_counts.append(len(sim.topology.links))
        bytes_per_round.append(sim.total_bytes_sent() / sim.rounds)
    r_squared = correlation(link_counts, bytes_per_round) ** 2
    announce(
        "cost-scaling",
        r_squared > 0.99,
        f"bytes/round vs links over {link_counts}: R^2 = {r_squared:.6f}",
    )
