"""End-to-end checks for the command line front end.

Everything goes through ``main(argv)`` so the exit codes and output the
shell would see are exactly what gets asserted.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from entmesh import cli
from entmesh.cli import main
from entmesh.config import MAX_NODE_ROUNDS, load_config
from entmesh.entangle import ChainProof, HubProof, LinkProof, decode_proof
from entmesh.keys import Ed25519Scheme
from entmesh.ledger import LedgerError, commitment_row, load_trust_bundle
from entmesh.node import Commitment
from entmesh.wire import encode_inclusion_proof

from adversary import emptied_bytes

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def link_run(tmp_path_factory):
    """Simulate the single-link scenario once and build a proof from it."""
    base = tmp_path_factory.mktemp("link-run")
    art = base / "artifacts"
    rc = main(["simulate", "--config", str(SCENARIOS / "link.yaml"), "--out", str(art)])
    assert rc == 0
    proof = base / "window.proof"
    rc = main(
        [
            "prove",
            "--config", str(SCENARIOS / "link.yaml"),
            "--kind", "link",
            "--holder", "h0",
            "--issuer", "hub",
            "--start", "1",
            "--end", "4",
            "--out", str(proof),
        ]
    )
    assert rc == 0
    return {"art": art, "proof": proof, "trust": art / "trust.json"}


@pytest.fixture(scope="module")
def chain_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("chain-run")
    art = base / "artifacts"
    assert main(["simulate", "--config", str(SCENARIOS / "chain.yaml"), "--out", str(art)]) == 0
    proof = base / "hops.proof"
    rc = main(
        [
            "prove",
            "--config", str(SCENARIOS / "chain.yaml"),
            "--kind", "chain",
            "--holder", "h0",
            "--start", "1",
            "--out", str(proof),
        ]
    )
    assert rc == 0
    return {"art": art, "proof": proof, "trust": art / "trust.json"}


@pytest.fixture(scope="module")
def identity_run(tmp_path_factory):
    """The identity scenario's run and its h0 -> hub link proof."""
    base = tmp_path_factory.mktemp("identity-run")
    art = base / "artifacts"
    assert main(["simulate", "--config", str(SCENARIOS / "identity.yaml"), "--out", str(art)]) == 0
    proof = base / "link.proof"
    rc = main(
        [
            "prove",
            "--config", str(SCENARIOS / "identity.yaml"),
            "--kind", "link",
            "--holder", "h0",
            "--issuer", "hub",
            "--start", "1",
            "--end", "4",
            "--out", str(proof),
        ]
    )
    assert rc == 0
    return {"art": art, "proof": proof, "trust": art / "trust.json"}


class TestSimulate:
    def test_summary_on_stdout(self, capsys):
        rc = main(["simulate", "--config", str(SCENARIOS / "link.yaml")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scenario link-demo" in out
        assert "bytes sent" in out

    def test_artifacts_written(self, link_run):
        for name in ("metrics.jsonl", "events.jsonl", "commitments.jsonl", "trust.json"):
            path = link_run["art"] / name
            assert path.is_file()
            assert path.stat().st_size > 0

    def test_json_format(self, capsys):
        rc = main(["simulate", "--config", str(SCENARIOS / "link.yaml"), "--format", "json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["scenario"] == "link-demo"
        assert obj["topology"] == "centralized-1"
        assert obj["rounds"] == 10
        assert obj["bytes_sent"] > 0

    def test_seed_override_lands_in_trust_bundle(self, tmp_path):
        out = tmp_path / "art"
        rc = main(
            ["simulate", "--config", str(SCENARIOS / "link.yaml"), "--seed", "777", "--out", str(out)]
        )
        assert rc == 0
        bundle = json.loads((out / "trust.json").read_text())
        assert bundle["seed"] == 777

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 3
        assert "io error" in capsys.readouterr().err

    def test_unparseable_yaml(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("rounds: [unclosed\n")
        rc = main(["simulate", "--config", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_yaml_is_refused(self, tmp_path, capsys):
        # PyYAML composes nested collections recursively; the run ends with one error line.
        path = tmp_path / "deep.yaml"
        path.write_text("rounds: " + "[" * 5000 + "]" * 5000 + "\n")
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: nested too deeply\n"
        assert "Traceback" not in err

    def _identity_with_claims(self, tmp_path, claims):
        path = tmp_path / "claims.yaml"
        data = yaml.safe_load((SCENARIOS / "identity.yaml").read_text())
        data["identity"][0]["claims"] = claims
        path.write_text(yaml.safe_dump(data))
        return path

    def test_deeply_nested_claims_run(self, tmp_path, capsys):
        # Claims 3,000 deep parse, so the credential's digest prints them.
        path = self._identity_with_claims(tmp_path, "(" * 3000 + "claim" + ")" * 3000)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().err == ""

    def test_claims_integer_past_the_int_string_limit_is_refused(self, tmp_path, capsys):
        path = self._identity_with_claims(tmp_path, "(role " + "9" * 5000 + ")")
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        bad = "bad expression: integer literal of 5000 digits is too long (offset 6)"
        assert err == f"error: {path}.identity[0].claims: {bad}\n"

    @pytest.mark.parametrize("command", ["simulate", "prove"])
    @pytest.mark.parametrize("key", ["seed", "holders"])
    def test_integer_past_the_int_string_limit_is_refused(self, tmp_path, capsys, command, key):
        # PyYAML's int constructor raises ValueError past Python's int-string limit.
        path = tmp_path / "big.yaml"
        seed, holders = ("9" * 5000, 3) if key == "seed" else (1, "9" * 5000)
        path.write_text(f"rounds: 4\nseed: {seed}\ntopology:\n  kind: centralized\n  holders: {holders}\n")
        out = tmp_path / "big.proof"
        args = [command, "--config", str(path)]
        if command == "prove":
            args += ["--kind", "hub", "--holder", "h0", "--start", "1", "--end", "2", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid YAML: Exceeds the limit (4300 digits) ")
        assert err.count("\n") == 1 and not out.exists()

    def test_run_too_large_is_refused(self, tmp_path, capsys):
        path = tmp_path / "huge.yaml"
        path.write_text("rounds: 100000000000\ntopology:\n  kind: chain\n  hops: 4\n")
        assert main(["simulate", "--config", str(path)]) == 2
        assert "huge.yaml.rounds: 100000000000 rounds x 5 nodes is more than" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: x\nseed: 1\nrounds: 3\nmystery: 9\n"
            "topology:\n  kind: centralized\n  holders: 1\n"
        )
        rc = main(["simulate", "--config", str(bad)])
        assert rc == 2
        assert "mystery" in capsys.readouterr().err


def _probe(**overrides):
    """A 3-holder centralized scenario of 8 rounds in which the hub issues credentials."""
    scenario = {"rounds": 8, "topology": {"kind": "centralized", "holders": 3}, "credential_issuers": ["hub"]}
    scenario.update(overrides)
    return scenario


def _issue(round_no, subject, mode="issuer-controlled"):
    return {"op": "issue", "round": round_no, "issuer": "hub", "subject": subject, "mode": mode}


class TestScenarioRules:
    """A scenario that loads runs to completion: every rule is checked when
    the file loads, and a file that breaks one exits 2 naming the field."""

    def simulate(self, tmp_path, scenario, *extra):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(scenario))
        return path, main(["simulate", "--config", str(path), *extra])

    @pytest.mark.parametrize("second_mode", ["holder-controlled", "issuer-controlled"])
    def test_revoke_names_the_issue_op_listed_before_it(self, tmp_path, second_mode):
        # credential 0 is the first issue op in the file (h0's, round 5),
        # not the first one to run (h1's, round 2).
        revoke = {"op": "revoke", "round": 6, "issuer": "hub", "credential": 0}
        scenario = _probe(identity=[_issue(5, "h0"), _issue(2, "h1", second_mode), revoke])
        out = tmp_path / "art"
        assert self.simulate(tmp_path, scenario, "--out", str(out))[1] == 0
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()[1:]]
        issued = {e["subject"]: e["digest"] for e in events if e["type"] == "CredentialIssued"}
        (revoked,) = [e["digest"] for e in events if e["type"] == "CredentialRevoked"]
        assert revoked == issued["h0"] != issued["h1"]

    @pytest.mark.parametrize(
        "scenario,field",
        [
            (
                _probe(identity=[_issue(5, "h0"), {"op": "revoke", "round": 2, "issuer": "hub", "credential": 0}]),
                "identity[1].credential: is issued in round 5",
            ),
            (
                _probe(
                    credential_issuers=["h1"],
                    identity=[
                        {
                            "op": "recover",
                            "round": 6,
                            "node": "h1",
                            "enroll_round": 2,
                            "guardians": ["hub", "hub", "h0"],
                            "threshold": 3,
                        }
                    ],
                ),
                "identity[0].guardians[1]: 'hub' is listed twice",
            ),
            (
                {
                    "rounds": 8,
                    "topology": {"kind": "federated", "levels": 2, "arity": 2, "holders": 4},
                    "faults": [
                        {"kind": "equivocate", "node": "m1-0", "start_round": 2, "fork_targets": ["h0"]},
                        {"kind": "equivocate", "node": "m1-0", "start_round": 3, "fork_targets": ["h2"]},
                    ],
                },
                "faults[1].node: 'm1-0' already equivocates",
            ),
            (
                _probe(
                    rounds=5,
                    faults=[
                        {"kind": "fork_history", "node": "h0", "round": 50},
                        {"kind": "withhold_receipt", "node": "hub", "victim": "h1", "start_round": 4, "end_round": 1},
                        {"kind": "fork_history", "node": "h1", "round": 0},
                        {"kind": "equivocate", "node": "hub", "start_round": 9, "fork_targets": ["h0"]},
                    ],
                ),
                "faults[0].round: round 50 is beyond the last round 4",
            ),
            (
                _probe(faults=[{"kind": "withhold_receipt", "node": "hub", "victim": "h1", "start_round": 4, "end_round": 1}]),
                "faults[0].end_round: must not precede start_round 4",
            ),
            (
                _probe(faults=[{"kind": "fork_history", "node": "h1", "round": 0}]),
                "faults[0].round: round 0 has no earlier round to rewrite",
            ),
            (
                _probe(faults=[{"kind": "equivocate", "node": "hub", "start_round": 9, "fork_targets": ["h0"]}]),
                "faults[0].start_round: round 9 is beyond the last round 7",
            ),
        ],
        ids=[
            "revoke-before-issue",
            "repeated-guardian",
            "second-equivocation",
            "faults-that-never-fire",
            "withhold-ends-before-start",
            "fork-at-round-0",
            "equivocation-after-the-run",
        ],
    )
    def test_refused_with_the_field_path(self, tmp_path, capsys, scenario, field):
        path, rc = self.simulate(tmp_path, scenario)
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}.{field}")

    def test_a_node_recovers_at_most_once(self, tmp_path, capsys):
        scenario = yaml.safe_load((SCENARIOS / "identity.yaml").read_text())
        (recover,) = [op for op in scenario["identity"] if op["op"] == "recover"]
        scenario["identity"].append(recover)
        path, rc = self.simulate(tmp_path, scenario)
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}.identity[4].node: 'h1' already recovers")


class TestProve:
    def test_link_proof_decodes(self, link_run):
        proof = decode_proof(link_run["proof"].read_bytes())
        assert isinstance(proof, LinkProof)
        assert (proof.window_start, proof.window_end) == (1, 4)
        assert len(proof.rounds) == 4

    def test_hub_proof_decodes(self, tmp_path):
        out = tmp_path / "hub.proof"
        rc = main(
            [
                "prove",
                "--config", str(SCENARIOS / "hub.yaml"),
                "--kind", "hub",
                "--holder", "center",
                "--start", "1",
                "--end", "4",
                "--out", str(out),
            ]
        )
        assert rc == 0
        proof = decode_proof(out.read_bytes())
        assert isinstance(proof, HubProof)
        assert len(proof.manifest) == 5 and all(len(rnd.receipts) == 5 for rnd in proof.rounds)

    def test_chain_proof_decodes(self, chain_run):
        proof = decode_proof(chain_run["proof"].read_bytes())
        assert isinstance(proof, ChainProof)
        assert len(proof.hops) == 4

    def test_hub_proof_with_no_links_is_refused(self, tmp_path, capsys):
        out = tmp_path / "hub.proof"
        rc = main(
            [
                "prove",
                "--config", str(SCENARIOS / "identity.yaml"),
                "--kind", "hub",
                "--holder", "hub",
                "--start", "1",
                "--end", "2",
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert "cannot build proof: holder commits an empty manifest" in capsys.readouterr().err
        assert not out.exists()

    def test_link_without_issuer(self, tmp_path, capsys):
        rc = main(
            [
                "prove",
                "--config", str(SCENARIOS / "link.yaml"),
                "--kind", "link",
                "--holder", "h0",
                "--start", "1",
                "--out", str(tmp_path / "x.proof"),
            ]
        )
        assert rc == 2
        assert "--issuer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, error",
        [
            (["--kind", "hub", "--holder", "nobody"], "unknown node label 'nobody'"),
            (["--kind", "chain", "--holder", "nobody"], "unknown node label 'nobody'"),
            (["--kind", "link", "--holder", "nobody", "--issuer", "nowhere"], "unknown node label 'nobody'"),
            (["--kind", "link", "--holder", "h0"], "cannot build proof: --issuer is required for link proofs"),
            (["--kind", "link", "--holder", "h0", "--issuer", ""], "cannot build proof: --issuer is required for link proofs"),
            (["--kind", "link", "--holder", "h0", "--issuer", "nowhere"], "cannot build proof: unknown node label 'nowhere'"),
        ],
        ids=["hub-holder", "chain-holder", "link-holder-first", "link-no-issuer", "link-empty-issuer", "link-issuer"],
    )
    def test_argument_errors_are_refused_before_the_run(self, args, error, tmp_path, monkeypatch, capsys):
        # Labels are the scenario's, so a bad one is refused before any
        # round runs, in the order and with the text a finished run gives.
        made = []
        monkeypatch.setattr(cli, "make_simulation", lambda *a, **k: made.append(a))
        out = tmp_path / "x.proof"
        argv = ["prove", "--config", str(SCENARIOS / "identity.yaml"), *args, "--start", "1", "--end", "2", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert made == [] and not out.exists()

    def test_chain_from_a_holder_with_no_path_to_an_anchor_is_refused_before_the_run(self, tmp_path, monkeypatch, capsys):
        # decentralized-ring has no anchors, so no chain can end in one.
        made = []
        monkeypatch.setattr(cli, "make_simulation", lambda *a, **k: made.append(a))
        out = tmp_path / "x.proof"
        argv = ["prove", "--config", str(SCENARIOS / "decentralized-ring.yaml"), "--kind", "chain", "--holder", "n0"]
        assert main([*argv, "--start", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: cannot build proof: topology has no anchors\n"
        assert made == [] and not out.exists()

    def test_window_past_available_evidence(self, tmp_path, capsys):
        rc = main(
            [
                "prove",
                "--config", str(SCENARIOS / "link.yaml"),
                "--kind", "link",
                "--holder", "h0",
                "--issuer", "hub",
                "--start", "6",
                "--end", "8",
                "--out", str(tmp_path / "x.proof"),
            ]
        )
        assert rc == 2
        assert "cannot build proof" in capsys.readouterr().err

    def test_unknown_holder_label(self, tmp_path, capsys):
        rc = main(
            [
                "prove",
                "--config", str(SCENARIOS / "link.yaml"),
                "--kind", "link",
                "--holder", "h9",
                "--issuer", "hub",
                "--start", "1",
                "--out", str(tmp_path / "x.proof"),
            ]
        )
        assert rc == 2
        assert "h9" in capsys.readouterr().err

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["prove", "--config", str(SCENARIOS / "link.yaml")])
        assert exc.value.code == 2


def _chain_holder(topology):
    """The label farthest from an anchor; the first label when none has a path."""

    def hops(label):
        try:
            return len(topology.path_to_anchor(label))
        except ValueError:
            return 0

    return max(topology.labels, key=hops)


def _prove_cases(config):
    """(case id, prove arguments) for a hub, a link and a chain proof: an early
    window, the last window the scenario's rounds hold, one round past it, a bad
    window and, for chains, a zero-length window; then proofs of an anchor and
    of an unknown label."""
    topology, last = config.topology, config.rounds - 1
    holder = max(topology.labels, key=lambda label: len(topology.issuers_of(label)))
    windows = {"early": (1, 2), "last": (last - 3, last - 2), "past": (last - 3, last - 1), "bad": (3, 2), "negative": (-1, 1)}
    cases = []
    for kind, extra in (("hub", []), ("link", ["--issuer", topology.issuers_of(holder)[0]])):
        for name, (start, end) in windows.items():
            cases.append((f"{kind}-{name}", ["--kind", kind, "--holder", holder, *extra, "--start", start, "--end", end]))
    chain_holder = _chain_holder(topology)
    try:
        hops = len(topology.path_to_anchor(chain_holder)) - 1
    except ValueError:
        hops = 1
    fits = last - 2 - (hops - 1) - 1  # the last start whose 2-round hop windows the rounds hold
    for name, (start, window) in {"early": (0, 1), "last": (fits, 2), "past": (fits + 1, 2), "bad": (-1, 2), "zero": (1, 0)}.items():
        cases.append((f"chain-{name}", ["--kind", "chain", "--holder", chain_holder, "--start", start, "--window", window]))
    for anchor in topology.anchors[:1]:  # pruned when the scenario prunes anchors; a chain of no hops
        cases.append(("hub-of-anchor", ["--kind", "hub", "--holder", anchor, "--start", 1, "--end", 2]))
        cases.append(("chain-from-anchor", ["--kind", "chain", "--holder", anchor, "--start", 1]))
    cases.append(("unknown-holder", ["--kind", "hub", "--holder", "nobody", "--start", 1, "--end", 2]))
    return cases


@pytest.fixture
def finished_runs(monkeypatch):
    """Has ``cli.make_simulation`` hand out one run per scenario, rounds and
    seed, and lists the rounds of every run it hands out.  A finished run
    runs again unchanged, so ``prove`` may reuse it."""
    made, runs = {}, []
    original = cli.make_simulation

    def make_simulation(config, seed=None):
        key = (config.name, config.rounds, seed)
        if key not in made:
            made[key] = original(config, seed=seed).run()
        runs.append(config.rounds)
        return made[key]

    monkeypatch.setattr(cli, "make_simulation", make_simulation)
    return runs


def _prove(capsys, argv, out):
    out.unlink(missing_ok=True)
    code = main(["prove", *map(str, argv), "--out", str(out)])
    printed = capsys.readouterr()
    return code, printed.out, printed.err, out.read_bytes() if out.exists() else None


def _prove_every_round(monkeypatch, capsys, argv, out):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_rounds_to_run", lambda config, args: config.rounds)
        return _prove(capsys, argv, out)


def _with_faults(tmp_path, scenario, *faults):
    data = yaml.safe_load((SCENARIOS / scenario).read_text())
    data["faults"] = [*data.get("faults", []), *faults]
    path = tmp_path / scenario
    path.write_text(yaml.safe_dump(data))
    return path


# name -> (scenario, the node whose last round read a fork_history replaces, prove
# arguments, the rounds prove runs): a hub proof reads center's rounds up to 6,
# and hop 3 of h0 -> m3-0 -> m2-0 -> m1-0 -> root reads m1-0's rounds up to 7.
FORKED_LAST_READS = {
    "hub-holder": ("hub.yaml", "center", ["--kind", "hub", "--holder", "center", "--start", 1, "--end", 4], 8),
    "last-hop-holder": ("chain.yaml", "m1-0", ["--kind", "chain", "--holder", "h0", "--start", 1, "--window", 2], 9),
}


class TestProveRunsTheRoundsItReads:
    """``prove`` runs a scenario only until the rounds its proof reads are
    final, and writes and prints what a run of every round would."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("scenario", sorted(path.name for path in SCENARIOS.glob("*.yaml")))
    def test_output_is_that_of_a_run_of_every_round(self, scenario, seed, tmp_path, monkeypatch, capsys, finished_runs):
        config = load_config(SCENARIOS / scenario)
        out = tmp_path / "window.proof"
        for case, args in _prove_cases(config):
            for fmt in ("text", "json"):
                argv = ["--config", SCENARIOS / scenario, *args, "--seed", seed, "--format", fmt]
                assert _prove(capsys, argv, out) == _prove_every_round(monkeypatch, capsys, argv, out), (case, fmt)
        assert min(finished_runs) < config.rounds == max(finished_runs)

    def test_hub_window_1_to_4_runs_7_of_10_rounds(self, tmp_path, capsys, finished_runs):
        argv = ["--config", SCENARIOS / "hub.yaml", "--kind", "hub", "--holder", "center", "--start", 1, "--end", 4]
        assert _prove(capsys, argv, tmp_path / "hub.proof")[0] == 0
        assert finished_runs == [7]

    @pytest.mark.parametrize("scenario, holder, args, rounds", FORKED_LAST_READS.values(), ids=list(FORKED_LAST_READS))
    def test_a_fork_of_the_last_round_read_runs_one_round_more(
        self, scenario, holder, args, rounds, tmp_path, monkeypatch, capsys, finished_runs
    ):
        config = _with_faults(tmp_path, scenario, {"kind": "fork_history", "node": holder, "round": rounds - 1})
        argv = ["--config", config, *args]
        out = tmp_path / "window.proof"
        proved = _prove(capsys, argv, out)
        assert proved[0] == 0 and finished_runs == [rounds]
        assert proved == _prove_every_round(monkeypatch, capsys, argv, out)
        # The fork replaces a round the proof reads: a run without it proves other bytes.
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_rounds_to_run", lambda config, args: rounds - 1)
            assert _prove(capsys, argv, out)[3] != proved[3]


class TestVerify:
    def test_good_proof(self, link_run, capsys):
        rc = main(["verify", "--proof", str(link_run["proof"]), "--trust", str(link_run["trust"])])
        assert rc == 0
        assert capsys.readouterr().out.startswith("OK")

    def test_json_verdict(self, link_run, capsys):
        rc = main(
            [
                "verify",
                "--proof", str(link_run["proof"]),
                "--trust", str(link_run["trust"]),
                "--format", "json",
            ]
        )
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ok"] is True
        assert obj["kind"] == "link"

    def test_json_verdict_counts_signatures(self, link_run, tmp_path, capsys):
        args = ["verify", "--proof", str(link_run["proof"]), "--trust", str(link_run["trust"])]
        assert main(args) == 0
        assert capsys.readouterr().out == "OK: link proof verifies\n"
        assert main(args + ["--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        # Four rounds: the holder chain's head alone (5 when the holder's four
        # submissions were checked too).  No repeat is counted.
        assert obj["signatures_checked"] == 1 and "signatures_repeated" not in obj
        # Four rounds: five holder chain links, two paths per receipt, one evidence path per round.
        assert obj["inclusion_proofs_checked"] == 5 + 4 * 2 + 4
        # A flipped hashed byte, in the first receipt's prev digest, fails a
        # fold, and no signature is checked.
        # A flipped signature byte, in the head's, passes every fold, and
        # the head is the first signature met, so it is the one checked.
        pristine = link_run["proof"].read_bytes()
        proof = decode_proof(pristine)
        prev_digest = proof.rounds[0].prev_digests[0]
        signature = proof.holder_chain.commitments[-1].signature
        for part, reason, checked in ((prev_digest, "ReceiptInvalid", 0), (signature, "BadSignature", 1)):
            assert pristine.count(part) == 1
            blob = bytearray(pristine)
            blob[pristine.find(part) + len(part) // 2] ^= 0x01
            bad = tmp_path / "bad.proof"
            bad.write_bytes(bytes(blob))
            assert main(["verify", "--proof", str(bad), "--trust", str(link_run["trust"]), "--format", "json"]) == 1
            obj = json.loads(capsys.readouterr().out)
            assert obj["ok"] is False and obj["reason"] == reason and obj["signatures_checked"] == checked

    def test_chain_proof_with_and_without_anchor_flag(self, chain_run, capsys):
        args = ["verify", "--proof", str(chain_run["proof"]), "--trust", str(chain_run["trust"])]
        assert main(args) == 0
        capsys.readouterr()
        # A chain proof names its anchor, so verify takes no --anchor.
        with pytest.raises(SystemExit) as exc:
            main(args + ["--anchor", "root"])
        assert exc.value.code == 2

    def test_flipped_byte_fails(self, link_run, tmp_path, capsys):
        blob = bytearray(link_run["proof"].read_bytes())
        blob[len(blob) // 2] ^= 0x01
        bad = tmp_path / "bad.proof"
        bad.write_bytes(bytes(blob))
        rc = main(["verify", "--proof", str(bad), "--trust", str(link_run["trust"])])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    @staticmethod
    def _verify_both_formats(proof: Path, trust: Path, capsys) -> tuple[str, dict]:
        args = ["verify", "--proof", str(proof), "--trust", str(trust)]
        assert main(args) == 1
        text = capsys.readouterr().out
        assert main(args + ["--format", "json"]) == 1
        return text, json.loads(capsys.readouterr().out)

    def test_flip_in_an_inner_hop_names_its_round(self, chain_run, tmp_path, capsys):
        # The CI chain proof: h0 from round 1, window 2, so hop 1 covers
        # holder rounds 2 and 3 and retains round 3's receipt in round 5.
        config = str(SCENARIOS / "chain.yaml")
        proof = tmp_path / "chain.proof"
        prove = ["prove", "--config", config, "--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2"]
        assert main(prove + ["--out", str(proof)]) == 0
        capsys.readouterr()
        blob = bytearray(proof.read_bytes())
        evidence = encode_inclusion_proof(decode_proof(bytes(blob)).hops[1].rounds[-1].evidence_proof)
        assert blob.count(evidence) == 1
        blob[blob.find(evidence) + len(evidence) - 1] ^= 0x01
        bad = tmp_path / "bad.proof"
        bad.write_bytes(bytes(blob))
        text, obj = self._verify_both_formats(bad, chain_run["trust"], capsys)
        detail = "hop 1: EvidenceInvalid (receipt for round 3 not retained in round 5)"
        assert text == f"FAIL: BrokenHop ({detail})\n"
        assert (obj["reason"], obj["detail"]) == ("BrokenHop", detail)

    def test_failure_that_checks_no_signature_repeats_none(self, tmp_path, capsys):
        # The hub's round-1 manifest path holds a flipped sibling: the proof
        # fails on it after the holder chain met its head's signature, so
        # none is checked, and the verdict counts no repeats.
        config = str(SCENARIOS / "hub.yaml")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "run")]) == 0
        proof = tmp_path / "hub.proof"
        prove = ["prove", "--config", config, "--kind", "hub", "--holder", "center", "--start", "1", "--end", "3"]
        assert main(prove + ["--out", str(proof)]) == 0
        capsys.readouterr()
        blob = bytearray(proof.read_bytes())
        sibling = decode_proof(bytes(blob)).manifest_proofs[0].siblings[0]
        at = blob.find(sibling)
        assert at > 0 and blob.count(sibling) == 1
        blob[at] ^= 0x01
        bad = tmp_path / "bad.proof"
        bad.write_bytes(bytes(blob))
        text, obj = self._verify_both_formats(bad, tmp_path / "run" / "trust.json", capsys)
        assert text == "FAIL: ManifestMismatch (committed manifest differs at round 1)\n"
        assert obj["signatures_checked"] == 0 and "signatures_repeated" not in obj

    def test_hub_verdict_counts_one_range_proof_per_round(self, tmp_path, capsys):
        # hub.yaml, rounds [1, 3]: five issuers.  The holder chain's head
        # alone; four links of its five commitments, two paths per receipt,
        # and per round one manifest and one evidence proof.
        config = str(SCENARIOS / "hub.yaml")
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "run")]) == 0
        proof = tmp_path / "hub.proof"
        prove = ["prove", "--config", config, "--kind", "hub", "--holder", "center", "--start", "1", "--end", "3"]
        assert main(prove + ["--out", str(proof)]) == 0
        capsys.readouterr()
        args = ["verify", "--proof", str(proof), "--trust", str(tmp_path / "run" / "trust.json"), "--format", "json"]
        assert main(args) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["signatures_checked"], obj["inclusion_proofs_checked"]) == (1, 4 + 5 * 3 * 2 + 3 + 3)

    def test_truncated_proof_is_malformed(self, link_run, tmp_path, capsys):
        bad = tmp_path / "short.proof"
        bad.write_bytes(link_run["proof"].read_bytes()[:-7])
        rc = main(["verify", "--proof", str(bad), "--trust", str(link_run["trust"])])
        assert rc == 1
        assert "MalformedProof" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["link", "hub"])
    @pytest.mark.parametrize("empty", ["holder_chain", "rounds"])
    def test_proof_with_no_holder_chain_entry_or_window_round_is_malformed(self, link_run, tmp_path, capsys, kind, empty):
        # The first holder chain commitment names the holder and the window's
        # first round, so a proof with no commitment, or no window round, names
        # neither.  No such proof can be made, so its bytes are written here,
        # with a zeroed u32 count.
        proof = tmp_path / "window.proof"
        if kind == "hub":
            prove = ["--config", str(SCENARIOS / "hub.yaml"), "--kind", "hub", "--holder", "center", "--start", "1", "--end", "3"]
            assert main(["prove", *prove, "--out", str(proof)]) == 0
            capsys.readouterr()
        else:
            proof = link_run["proof"]
        bad = tmp_path / "empty.proof"
        blob = proof.read_bytes()
        bad.write_bytes(blob[:5] + emptied_bytes(decode_proof(blob), empty))
        expected = "FAIL: MalformedProof (a link or hub proof needs a holder chain entry and a window round)\n"
        assert main(["verify", "--proof", str(bad), "--trust", str(link_run["trust"])]) == 1
        assert capsys.readouterr().out == expected
        assert main(["inspect", "--proof", str(bad)]) == 1
        assert capsys.readouterr().out == expected

    # EMP7 link and hub proofs wrote their holder id and window, which the
    # holder chain gives, and EMP8 holder chains a prev digest per entry,
    # which the commitment before it gives; no EMP7 or EMP8 reader is kept.
    @pytest.mark.parametrize("magic", [b"XXXX", b"EMP7", b"EMP8"], ids=["XXXX", "EMP7", "EMP8"])
    def test_bad_magic_is_malformed(self, link_run, tmp_path, capsys, magic):
        blob = link_run["proof"].read_bytes()
        bad = tmp_path / "magic.proof"
        bad.write_bytes(magic + blob[4:])
        rc = main(["verify", "--proof", str(bad), "--trust", str(link_run["trust"])])
        assert rc == 1
        assert capsys.readouterr().out == "FAIL: MalformedProof (not a proof file)\n"

    def test_corrupt_trust_bundle(self, link_run, tmp_path, capsys):
        bad = tmp_path / "trust.json"
        bad.write_text('{"format": "something-else"}')
        rc = main(["verify", "--proof", str(link_run["proof"]), "--trust", str(bad)])
        assert rc == 1
        assert "MalformedTrust" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "section, value",
        [
            ("keys", {"hub": 5}),
            ("keys", [1]),
            ("bindings", "x"),
            ("anchors", {"hub": 7}),
            ("anchors", [1]),
        ],
        ids=["keys-int-entry", "keys-list", "bindings-str", "anchors-int-log", "anchors-list"],
    )
    def test_wrongly_typed_trust_bundle(self, link_run, tmp_path, capsys, section, value):
        # Valid JSON with a wrong type inside must be reported, not crash.
        bundle = json.loads(link_run["trust"].read_text())
        if section == "bindings":
            bundle["keys"]["hub"]["bindings"] = value
        else:
            bundle[section] = value
        bad = tmp_path / "trust.json"
        bad.write_text(json.dumps(bundle))
        rc = main(["verify", "--proof", str(link_run["proof"]), "--trust", str(bad)])
        assert rc == 1
        assert "MalformedTrust" in capsys.readouterr().out

    @pytest.mark.parametrize("cut", [-1, 1], ids=["one-byte-short", "one-byte-long"])
    def test_node_id_of_wrong_length(self, identity_run, tmp_path, capsys, cut):
        # No digest type checks the length: a 31- or 33-byte id is refused
        # because it cannot equal the fingerprint of its key.
        bundle = json.loads(identity_run["trust"].read_text())
        node_id = bundle["keys"]["h0"]["node_id"]
        bundle["keys"]["h0"]["node_id"] = node_id[:-2] if cut < 0 else node_id + "00"
        bad = tmp_path / "trust.json"
        bad.write_text(json.dumps(bundle))
        with pytest.raises(LedgerError, match="bad key entry for 'h0'"):
            load_trust_bundle(bad)
        rc = main(["verify", "--proof", str(identity_run["proof"]), "--trust", str(bad)])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL: MalformedTrust (") and "bad key entry for 'h0'" in out

    def test_missing_proof_file(self, link_run, tmp_path):
        rc = main(["verify", "--proof", str(tmp_path / "gone.proof"), "--trust", str(link_run["trust"])])
        assert rc == 3

    def test_foreign_trust_bundle_rejected(self, link_run, tmp_path, capsys):
        other = tmp_path / "other"
        rc = main(
            ["simulate", "--config", str(SCENARIOS / "link.yaml"), "--seed", "999", "--out", str(other)]
        )
        assert rc == 0
        rc = main(
            ["verify", "--proof", str(link_run["proof"]), "--trust", str(other / "trust.json")]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


# The CI proofs (scenario, prove arguments) and what ``inspect --proof``
# prints for them, in text and JSON.  Each holder and window is read from
# its holder chain.
CI_PROOFS_INSPECTED = {
    "hub": (
        ["--config", str(SCENARIOS / "hub.yaml"), "--kind", "hub", "--holder", "center", "--start", "1", "--end", "3"],
        "hub proof, rounds [1, 3], 5 links, 4309 bytes\n"
        "  a verify owes 1 Ed25519 check and 40 inclusion proofs\n"
        "  holder 0a65d3f580a7d0d81eed1f10e4d637b2a0ca563fd859619021d8bee6a9d3bbf6\n",
        {
            "bytes": 4309,
            "holder": "0a65d3f580a7d0d81eed1f10e4d637b2a0ca563fd859619021d8bee6a9d3bbf6",
            "inclusion_proofs_owed": 40,
            "kind": "hub",
            "links": 5,
            "manifest": [
                "21bfd77c950907d302e55f97b81203880d9789c7b3134f993cafcf63b8b2188e",
                "2f4a6384edef2a8194de84ae5b9183e9452f76e9376a43edd8aeb3576b5737a5",
                "42ab3769c2b137854f4ce1f86c41d66f6ce892f0fabdfcc5152776966ad82cc2",
                "8de4b516316263aff13c5857fbc40310db49cdc8aa1c1fb68a39e45824c0f56d",
                "8f9cfb9823f83269fcc2b66ae71331e80150a2ff0d7a3a18df274324b97bd466",
            ],
            "signatures_owed": 1,
            "window": [1, 3],
        },
    ),
    "chain": (
        ["--config", str(SCENARIOS / "chain.yaml"), "--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2"],
        "chain proof, 4 hops, 6265 bytes\n"
        "  a verify owes 4 Ed25519 checks and 36 inclusion proofs\n"
        "  holder 8c82c6368f6141358d305a76da07b1ac1a4622c6023155bfcff4275cd13ca510\n"
        "  anchor 00d58369f3756164c05594dcbf206610c802884990620912bf3e81d14458fb8b at round 6\n",
        {
            "anchor": "00d58369f3756164c05594dcbf206610c802884990620912bf3e81d14458fb8b",
            "anchor_round": 6,
            "bytes": 6265,
            "holder": "8c82c6368f6141358d305a76da07b1ac1a4622c6023155bfcff4275cd13ca510",
            "hops": 4,
            "inclusion_proofs_owed": 36,
            "kind": "chain",
            "signatures_owed": 4,
        },
    ),
    "link": (
        ["--config", str(SCENARIOS / "identity.yaml"), "--kind", "link", "--holder", "h0", "--issuer", "hub", "--start", "1", "--end", "4"],
        "link proof, rounds [1, 4], 2777 bytes\n"
        "  a verify owes 1 Ed25519 check and 17 inclusion proofs\n"
        "  holder c216bf170ae0e55225574e922362d7154a039d60102c0c7f976ff28635086d9d\n"
        "  issuer c91b3d66d2fdcca30575cd1817fd074cd075aed90952f98dd6a7f71049e4ef90\n",
        {
            "bytes": 2777,
            "holder": "c216bf170ae0e55225574e922362d7154a039d60102c0c7f976ff28635086d9d",
            "inclusion_proofs_owed": 17,
            "issuer": "c91b3d66d2fdcca30575cd1817fd074cd075aed90952f98dd6a7f71049e4ef90",
            "kind": "link",
            "receipts": 4,
            "signatures_owed": 1,
            "window": [1, 4],
        },
    ),
}


class TestInspect:
    @pytest.mark.parametrize("kind", sorted(CI_PROOFS_INSPECTED))
    def test_ci_proof_inspected(self, kind, tmp_path, capsys):
        prove, text, obj = CI_PROOFS_INSPECTED[kind]
        proof = tmp_path / f"{kind}.proof"
        assert main(["prove", *prove, "--out", str(proof)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--proof", str(proof)]) == 0
        assert capsys.readouterr().out == text
        assert main(["inspect", "--proof", str(proof), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == obj

    @pytest.mark.parametrize("kind", sorted(CI_PROOFS_INSPECTED))
    def test_owed_checks_are_an_honest_verifys(self, ci_runs, kind, capsys):
        # What inspect reads from a proof's structure is what verifying it
        # counts: (1, 40) for the hub, (4, 36) for the chain, (1, 17) for the link.
        assert main(["inspect", "--proof", str(ci_runs[kind]["proof"]), "--format", "json"]) == 0
        owed = json.loads(capsys.readouterr().out)
        rc, verdict = _verify_json(ci_runs[kind]["proof"], ci_runs[kind]["trust"], capsys)
        assert rc == 0 and verdict["ok"] is True
        assert (owed["signatures_owed"], owed["inclusion_proofs_owed"]) == (verdict["signatures_checked"], verdict["inclusion_proofs_checked"])

    def test_proof_summary(self, link_run, capsys):
        rc = main(["inspect", "--proof", str(link_run["proof"]), "--format", "json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "link"
        assert obj["window"] == [1, 4]
        proof = decode_proof(link_run["proof"].read_bytes())
        assert obj["holder"] == proof.holder_id.hex()

    def test_chain_anchor_round_from_the_last_window(self, tmp_path, capsys):
        # The CI chain proof: four hops from round 1, window 2, so the last
        # hop covers rounds 4 and 5 and ends in the anchor's round-6
        # commitment, as when proofs stored that commitment.
        config = str(SCENARIOS / "chain.yaml")
        proof = tmp_path / "chain.proof"
        prove = ["prove", "--config", config, "--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2"]
        assert main(prove + ["--out", str(proof)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--proof", str(proof), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["hops"], obj["anchor_round"]) == (4, 6)
        assert main(["inspect", "--proof", str(proof)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(" at round 6")

    def test_ledger_summary(self, link_run, capsys):
        rc = main(["inspect", "--ledger", str(link_run["art"] / "events.jsonl"), "--format", "json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["header"]["kind"] == "events"
        assert obj["records"] >= 0

    def test_trust_summary(self, link_run, capsys):
        rc = main(["inspect", "--trust", str(link_run["trust"]), "--format", "json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["topology"] == "centralized-1"
        assert obj["anchors"] == {"hub": 10}
        assert "h0" in obj["nodes"]

    def test_targets_are_mutually_exclusive(self, link_run):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "inspect",
                    "--proof", str(link_run["proof"]),
                    "--ledger", str(link_run["art"] / "events.jsonl"),
                ]
            )
        assert exc.value.code == 2

    def test_malformed_ledger(self, tmp_path, capsys):
        bad = tmp_path / "junk.jsonl"
        bad.write_text("junk\n")
        rc = main(["inspect", "--ledger", str(bad)])
        assert rc == 1
        assert "MalformedLedger" in capsys.readouterr().out

    def test_malformed_proof(self, link_run, tmp_path, capsys):
        bad = tmp_path / "short.proof"
        bad.write_bytes(link_run["proof"].read_bytes()[:5])
        rc = main(["inspect", "--proof", str(bad)])
        assert rc == 1
        assert "MalformedProof" in capsys.readouterr().out


class TestUndecodableInput:
    """Files that are not UTF-8, nest too deeply for the JSON parser or hold
    an integer past Python's int-string limit are reported with exit 1 and
    a named reason, never a traceback; a scenario file, which is
    configuration, with exit 2 and one error line, in any YAML integer form."""

    @staticmethod
    def spoil(source: Path, kind: str) -> bytes:
        blob = source.read_bytes()
        if kind == "non-utf8":
            middle = len(blob) // 2
            return blob[:middle] + b"\xff" + blob[middle:]
        if kind == "big-hex-int":
            # 5,000 hex digits, which PyYAML builds without a decimal conversion.
            return re.sub(rb"seed: \d+", b"seed: 0x" + b"f" * 5000, blob, count=1)
        if kind == "big-int":
            # 5,000 digits: the bundle's seed, or a whole record as a ledger's last line.
            if source.suffix == ".json":
                return re.sub(rb'"seed": \d+', b'"seed": ' + b"9" * 5000, blob, count=1)
            return blob + b'{"round":' + b"9" * 5000 + b"}\n"
        deep = b"[" * 100000
        if source.suffix == ".json":
            assert b'"topology": ' in blob
            return blob.replace(b'"topology": ', b'"topology": ' + deep, 1)
        # A nested record between intact ones, so it is not a truncated tail.
        header, rest = blob.split(b"\n", 1)
        assert rest.count(b"\n") >= 1
        return header + b"\n" + deep + b"\n" + rest

    @pytest.mark.parametrize("kind", ["non-utf8", "nested", "big-int"])
    @pytest.mark.parametrize(
        "command, reason",
        [("verify-trust", "MalformedTrust"), ("inspect-trust", "MalformedTrust"), ("inspect-ledger", "MalformedLedger")],
    )
    def test_reported_not_raised(self, link_run, tmp_path, capsys, command, reason, kind):
        source = link_run["art"] / ("metrics.jsonl" if command == "inspect-ledger" else "trust.json")
        bad = tmp_path / source.name
        bad.write_bytes(self.spoil(source, kind))
        if command == "verify-trust":
            argv = ["verify", "--proof", str(link_run["proof"]), "--trust", str(bad)]
        elif command == "inspect-trust":
            argv = ["inspect", "--trust", str(bad)]
        else:
            argv = ["inspect", "--ledger", str(bad)]
        assert main(argv) == 1
        assert reason in capsys.readouterr().out

    @staticmethod
    def refuse_scenario(tmp_path, capsys, command: str, kind: str) -> tuple[Path, str]:
        """Run ``command`` on hub.yaml spoiled by ``kind``: exit 2, no output,
        no proof.  Returns the spoiled file and what went to stderr."""
        bad = tmp_path / "hub.yaml"
        bad.write_bytes(TestUndecodableInput.spoil(SCENARIOS / "hub.yaml", kind))
        proof = tmp_path / "hub.proof"
        argv = [command, "--config", str(bad)]
        if command == "prove":
            argv += ["--kind", "hub", "--holder", "center", "--start", "1", "--end", "3", "--out", str(proof)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not proof.exists()
        return bad, captured.err

    @pytest.mark.parametrize("command", ["simulate", "prove"])
    def test_scenario_that_is_not_utf8(self, tmp_path, capsys, command):
        bad, err = self.refuse_scenario(tmp_path, capsys, command, "non-utf8")
        offset = len((SCENARIOS / "hub.yaml").read_bytes()) // 2  # hub.yaml is ASCII, so the byte's offset is its position
        assert err == f"error: {bad}: not UTF-8 (byte 0xff at offset {offset})\n"

    @pytest.mark.parametrize("command", ["simulate", "prove"])
    def test_scenario_hex_integer_past_the_int_string_limit(self, tmp_path, capsys, command):
        bad, err = self.refuse_scenario(tmp_path, capsys, command, "big-hex-int")
        limit = sys.get_int_max_str_digits()
        assert err == f"error: {bad}.seed: integer of more than {limit} digits, past the int-string limit\n"


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _paths(child, path + (index,))


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _restructure(value, op):
    if op == "nest-list":
        return [value]
    if op == "nest-dict":
        return {"value": value}
    if op == "swap":
        if isinstance(value, list):
            return {str(index): child for index, child in enumerate(value)}
        if isinstance(value, dict):
            return list(value.values())
        return [value]
    return json.dumps(value)  # "stringify": any scalar or container becomes a string


def _mutate(data, value, values):
    """Apply one to three drawn mutations to ``value`` and return it: drop,
    retype (to one of ``values``), nest, swap or stringify some part."""
    # Holding the value under one key lets the top level mutate like any part.
    holder = {"value": value}
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(holder))[1:]
        if not paths:
            break
        *steps, last = data.draw(st.sampled_from(paths), label="path")
        op = data.draw(st.sampled_from(["drop", "retype", "nest-list", "nest-dict", "swap", "stringify"]), label="op")
        parent = holder
        for step in steps:
            parent = parent[step]
        if op == "drop":
            del parent[last]
        elif op == "retype":
            parent[last] = data.draw(values, label="value")
        else:
            parent[last] = _restructure(parent[last], op)
    return holder.get("value")


@pytest.fixture(scope="module")
def recovery_run(tmp_path_factory):
    """A trust bundle with a key rebinding (h1 recovers at round 7) and a
    link proof that needs it."""
    base = tmp_path_factory.mktemp("recovery-run")
    config = str(SCENARIOS / "identity.yaml")
    assert main(["simulate", "--config", config, "--out", str(base / "art")]) == 0
    proof = base / "recovered.proof"
    argv = ["prove", "--config", config, "--kind", "link", "--holder", "h1", "--issuer", "hub"]
    assert main(argv + ["--start", "6", "--end", "7", "--out", str(proof)]) == 0
    trust = base / "art" / "trust.json"
    assert main(["verify", "--proof", str(proof), "--trust", str(trust)]) == 0
    return {"base": base, "proof": proof, "trust": trust}


def _relabel_hub_log(label):
    def relabel(bundle):
        bundle["anchors"][label] = bundle["anchors"].pop("hub")

    return relabel


def _second_label_for_h1(bundle):
    h1 = bundle["keys"]["h1"]
    bundle["keys"]["zz"] = {"node_id": h1["node_id"], "bindings": h1["bindings"][:1]}


def _flip_signature_byte(bundle):
    # The commitment blob ends with its signature; verifiers do not check the
    # signatures of trusted commitments again, so the bundle must be refused.
    row = bundle["anchors"]["hub"][4]
    blob = bytearray.fromhex(row["commitment"])
    blob[-1] ^= 0x01
    row["commitment"] = blob.hex()


# Bundles that break one load rule each, and the label or field the refusal
# must name.
TRUST_PROBES = {
    "topology-not-a-string": (lambda bundle: bundle.update(topology={"x": [1]}), "topology"),
    "first-binding-after-round-0": (
        lambda bundle: bundle["keys"]["h1"]["bindings"][0].update(from_round=5),
        "'h1': from_round values [5, 7]",
    ),
    "first-binding-round-not-an-integer": (
        lambda bundle: bundle["keys"]["h1"]["bindings"][0].update(from_round="zero"),
        "'h1': from_round",
    ),
    "rebinding-at-round-0": (
        lambda bundle: bundle["keys"]["h1"]["bindings"][1].update(from_round=0),
        "'h1': from_round values [0, 0]",
    ),
    "anchor-log-of-another-node": (_relabel_hub_log("h0"), "anchor log for 'h0'"),
    "anchor-log-without-key-entry": (_relabel_hub_log("ghost"), "anchor log for 'ghost'"),
    "node-id-listed-twice": (_second_label_for_h1, "'zz': node id"),
    "anchor-round-listed-twice": (
        lambda bundle: bundle["anchors"]["hub"].insert(5, bundle["anchors"]["hub"][5]),
        "anchor log for 'hub': round 5 is listed twice",
    ),
    "anchor-row-labelled-another-node": (
        lambda bundle: bundle["anchors"]["hub"][3].update(node="h2"),
        "anchor log for 'hub': round 3 is labelled 'h2'",
    ),
    "anchor-row-signature-flipped": (_flip_signature_byte, "anchor log for 'hub' has a bad signature at round 4)"),
}


class TestTrustBundleFuzz:
    @pytest.mark.parametrize("command", ["verify", "inspect"])
    @pytest.mark.parametrize("probe", list(TRUST_PROBES))
    def test_bundle_rules_checked_at_load(self, recovery_run, tmp_path, capsys, command, probe):
        mutate, named = TRUST_PROBES[probe]
        bundle = json.loads(recovery_run["trust"].read_text())
        mutate(bundle)
        bad = tmp_path / "trust.json"
        bad.write_text(json.dumps(bundle))
        if command == "verify":
            argv = ["verify", "--proof", str(recovery_run["proof"]), "--trust", str(bad)]
        else:
            argv = ["inspect", "--trust", str(bad)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL: MalformedTrust")
        assert named in out

    def test_infinite_rebind_round(self, recovery_run, tmp_path, capsys):
        bundle = json.loads(recovery_run["trust"].read_text())
        bundle["keys"]["h1"]["bindings"][1]["from_round"] = float("inf")
        bad = tmp_path / "trust.json"
        bad.write_text(json.dumps(bundle))
        assert main(["verify", "--proof", str(recovery_run["proof"]), "--trust", str(bad)]) == 1
        assert "MalformedTrust" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "inspect"])
    @pytest.mark.parametrize(
        "field, value", [("from_round", 6.9), ("from_round", True), ("from_round", "7"), ("seed", True)]
    )
    def test_round_and_seed_must_be_json_integers(self, recovery_run, tmp_path, capsys, command, field, value):
        bundle = json.loads(recovery_run["trust"].read_text())
        if field == "seed":
            bundle["seed"] = value
        else:
            bundle["keys"]["h1"]["bindings"][1]["from_round"] = value
        bad = tmp_path / "trust.json"
        bad.write_text(json.dumps(bundle))
        if command == "verify":
            argv = ["verify", "--proof", str(recovery_run["proof"]), "--trust", str(bad)]
        else:
            argv = ["inspect", "--trust", str(bad)]
        assert main(argv) == 1
        assert "MalformedTrust" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "inspect"])
    @pytest.mark.parametrize("round_no, value", [(1, 1.0), (0, False)])
    def test_anchor_row_round_must_be_json_integer(self, recovery_run, tmp_path, capsys, command, round_no, value):
        bundle = json.loads(recovery_run["trust"].read_text())
        rows = [row for log in bundle["anchors"].values() for row in log if row["round"] == round_no]
        assert rows
        rows[0]["round"] = value
        bad = tmp_path / "trust.json"
        bad.write_text(json.dumps(bundle))
        if command == "verify":
            argv = ["verify", "--proof", str(recovery_run["proof"]), "--trust", str(bad)]
        else:
            argv = ["inspect", "--trust", str(bad)]
        assert main(argv) == 1
        assert "MalformedTrust" in capsys.readouterr().out

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_structure_never_raises(self, recovery_run, data):
        bundle = _mutate(data, json.loads(recovery_run["trust"].read_text()), JSON_VALUES)
        mutated = recovery_run["base"] / "mutated-trust.json"
        mutated.write_text(json.dumps(bundle))
        assert main(["verify", "--proof", str(recovery_run["proof"]), "--trust", str(mutated)]) in (0, 1)



@pytest.fixture(scope="module")
def ci_runs(tmp_path_factory):
    """Each CI proof, by kind, with the trust bundle of its scenario's run."""
    runs = {}
    for kind, (prove, _text, _obj) in CI_PROOFS_INSPECTED.items():
        base = tmp_path_factory.mktemp(f"ci-{kind}")
        assert main(["simulate", *prove[:2], "--out", str(base)]) == 0  # prove[:2] is --config and its file
        assert main(["prove", *prove, "--out", str(base / "ci.proof")]) == 0
        runs[kind] = {"proof": base / "ci.proof", "trust": base / "trust.json"}
    return runs


@pytest.fixture
def ed25519_calls(monkeypatch):
    """A list that grows by one for each Ed25519 check made."""
    calls, verify = [], Ed25519Scheme.verify
    monkeypatch.setattr(Ed25519Scheme, "verify", lambda self, *args: calls.append(args) or verify(self, *args))
    return calls


def _verify_json(proof: Path, trust: Path, capsys) -> tuple[int, dict]:
    rc = main(["verify", "--proof", str(proof), "--trust", str(trust), "--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


def _flip_first_prev_digest(blob: bytes) -> bytes:
    """``blob`` with a bit flipped in its first receipt's prev digest, which the
    receipt's first-leaf path then fails to fold."""
    proof = decode_proof(blob)
    rounds = proof.hops[0].rounds if isinstance(proof, ChainProof) else proof.rounds
    prev_digest = rounds[0].prev_digests[0]
    assert blob.count(prev_digest) == 1
    at = blob.find(prev_digest)
    return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1 :]


def _forge_last_row(trust: Path, out: Path) -> str:
    """Write to ``out`` the bundle at ``trust`` with its first anchor log's last
    row forged: its root, in the blob and the ``root`` field, changed, so the
    row keeps every structural rule and only its signature is wrong.  Returns
    the refusal that names it."""
    bundle = json.loads(trust.read_text())
    label = sorted(bundle["anchors"])[0]
    row = bundle["anchors"][label][-1]
    c = Commitment.from_bytes(bytes.fromhex(row["commitment"]))
    forged = dataclasses.replace(c, root=bytes(b ^ 0xFF for b in c.root))
    bundle["anchors"][label][-1] = commitment_row(label, forged)
    out.write_text(json.dumps(bundle))
    return f"{out}: anchor log for {label!r} has a bad signature at round {c.round}"


class TestAnchorRowsCheckedLast:
    """``verify`` reads the bundle's structure, then the proof, and checks the
    anchor rows' signatures only before an OK."""

    # Ed25519 checks an honest CI proof makes: every anchor row (hub 50,
    # chain 10, link 10) and one per holder chain head.
    HONEST_CHECKS = {"hub": 51, "chain": 14, "link": 11}

    @pytest.mark.parametrize("kind", sorted(HONEST_CHECKS))
    def test_honest_proof_checks_every_row(self, ci_runs, kind, ed25519_calls, capsys):
        rc, obj = _verify_json(ci_runs[kind]["proof"], ci_runs[kind]["trust"], capsys)
        assert rc == 0 and obj["ok"] is True
        assert len(ed25519_calls) == self.HONEST_CHECKS[kind]

    @pytest.mark.parametrize("kind", sorted(HONEST_CHECKS))
    def test_proof_a_fold_refuses_costs_no_ed25519_check(self, ci_runs, kind, tmp_path, ed25519_calls, capsys):
        bad = tmp_path / "bad.proof"
        bad.write_bytes(_flip_first_prev_digest(ci_runs[kind]["proof"].read_bytes()))
        rc, obj = _verify_json(bad, ci_runs[kind]["trust"], capsys)
        assert rc == 1 and obj["reason"] in ("ReceiptInvalid", "LinkFailed", "BrokenHop")
        assert ed25519_calls == [] and obj["signatures_checked"] == 0

    @pytest.mark.parametrize("kind", sorted(HONEST_CHECKS))
    def test_refused_copy_makes_only_the_checks_its_verdict_counts(self, ci_runs, kind, tmp_path, ed25519_calls, capsys):
        # Flipped bits spread over the proof: a copy that decodes is refused
        # by its folds (no check) or by a head's signature (the ones its
        # verdict counts); one that does not decode makes none.
        pristine = ci_runs[kind]["proof"].read_bytes()
        bad = tmp_path / "bad.proof"
        for at in range(7, len(pristine), len(pristine) // 40):
            bad.write_bytes(pristine[:at] + bytes([pristine[at] ^ 0x10]) + pristine[at + 1 :])
            ed25519_calls.clear()
            rc, obj = _verify_json(bad, ci_runs[kind]["trust"], capsys)
            assert rc == 1 and obj["reason"] != "MalformedTrust"
            assert len(ed25519_calls) == obj.get("signatures_checked", 0)

    @pytest.mark.parametrize("kind", sorted(HONEST_CHECKS))
    def test_forged_row_is_named_only_for_a_proof_that_passes(self, ci_runs, kind, tmp_path, capsys):
        forged = tmp_path / "trust.json"
        refusal = _forge_last_row(ci_runs[kind]["trust"], forged)
        assert main(["verify", "--proof", str(ci_runs[kind]["proof"]), "--trust", str(forged)]) == 1
        assert capsys.readouterr().out == f"FAIL: MalformedTrust ({refusal})\n"
        bad = tmp_path / "bad.proof"
        bad.write_bytes(_flip_first_prev_digest(ci_runs[kind]["proof"].read_bytes()))
        verdicts = []
        for trust in (ci_runs[kind]["trust"], forged):
            assert main(["verify", "--proof", str(bad), "--trust", str(trust)]) == 1
            verdicts.append(capsys.readouterr().out)
        assert verdicts[0] == verdicts[1] and "MalformedTrust" not in verdicts[0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_structurally_valid_forged_rows_never_raise(self, recovery_run, data):
        # Any anchor row, the ones the proof reads included, with any root,
        # leaf count, round or signature its blob can hold.
        bundle = json.loads(recovery_run["trust"].read_text())
        rows = [(label, i) for label, log in sorted(bundle["anchors"].items()) for i in range(len(log))]
        label, i = data.draw(st.sampled_from(rows), label="row")
        c = Commitment.from_bytes(bytes.fromhex(bundle["anchors"][label][i]["commitment"]))
        forged = dataclasses.replace(
            c,
            root=data.draw(st.sampled_from([c.root, bytes(32), bytes(b ^ 1 for b in c.root)]), label="root"),
            leaf_count=data.draw(st.sampled_from([c.leaf_count, 0, 1, c.leaf_count + 1, 2**64 - 1]), label="leaf_count"),
            round=data.draw(st.sampled_from([c.round, c.round + 1, 2**64 - 1]), label="round"),
            signature=data.draw(st.sampled_from([c.signature, b"", bytes(64), c.signature[:-1]]), label="signature"),
        )
        bundle["anchors"][label][i] = commitment_row(label, forged)
        mutated = recovery_run["base"] / "forged-trust.json"
        mutated.write_text(json.dumps(bundle))
        rc = main(["verify", "--proof", str(recovery_run["proof"]), "--trust", str(mutated)])
        assert rc == (0 if forged == c else 1)

# Small integers keep a mutated scenario's run short; the two large ones
# cross MAX_NODE_ROUNDS whatever they replace.
SCENARIO_SCALARS = st.one_of(
    st.integers(-2, 5),
    st.sampled_from([MAX_NODE_ROUNDS + 1, 10**11]),
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
)
SCENARIO_VALUES = st.recursive(
    SCENARIO_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scenario-fuzz")


class TestScenarioFuzz:
    @pytest.mark.parametrize("scenario", sorted(path.name for path in SCENARIOS.glob("*.yaml")))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_structure_never_raises(self, fuzz_dir, scenario, data):
        config = _mutate(data, yaml.safe_load((SCENARIOS / scenario).read_text()), SCENARIO_VALUES)
        mutated = fuzz_dir / scenario
        mutated.write_text(yaml.safe_dump(config))
        assert main(["simulate", "--config", str(mutated)]) in (0, 2)
