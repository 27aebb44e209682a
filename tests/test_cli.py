"""End-to-end checks for the command line front end.

Everything goes through ``main(argv)`` so the exit codes and output the
shell would see are exactly what gets asserted.
"""

import json
from pathlib import Path

import pytest

from entmesh.cli import main
from entmesh.entangle import ChainProof, HubProof, LinkProof, decode_proof

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

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: x\nseed: 1\nrounds: 3\nmystery: 9\n"
            "topology:\n  kind: centralized\n  holders: 1\n"
        )
        rc = main(["simulate", "--config", str(bad)])
        assert rc == 2
        assert "mystery" in capsys.readouterr().err


class TestProve:
    def test_link_proof_decodes(self, link_run):
        proof = decode_proof(link_run["proof"].read_bytes())
        assert isinstance(proof, LinkProof)
        assert (proof.window_start, proof.window_end) == (1, 4)
        assert len(proof.receipts) == 4

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
        assert len(proof.links) == 5

    def test_chain_proof_decodes(self, chain_run):
        proof = decode_proof(chain_run["proof"].read_bytes())
        assert isinstance(proof, ChainProof)
        assert len(proof.hops) == 4

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

    def test_chain_proof_with_and_without_anchor_flag(self, chain_run, capsys):
        args = ["verify", "--proof", str(chain_run["proof"]), "--trust", str(chain_run["trust"])]
        assert main(args) == 0
        assert main(args + ["--anchor", "root"]) == 0
        capsys.readouterr()

    def test_flipped_byte_fails(self, link_run, tmp_path, capsys):
        blob = bytearray(link_run["proof"].read_bytes())
        blob[len(blob) // 2] ^= 0x01
        bad = tmp_path / "bad.proof"
        bad.write_bytes(bytes(blob))
        rc = main(["verify", "--proof", str(bad), "--trust", str(link_run["trust"])])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_truncated_proof_is_malformed(self, link_run, tmp_path, capsys):
        bad = tmp_path / "short.proof"
        bad.write_bytes(link_run["proof"].read_bytes()[:-7])
        rc = main(["verify", "--proof", str(bad), "--trust", str(link_run["trust"])])
        assert rc == 1
        assert "MalformedProof" in capsys.readouterr().out

    def test_bad_magic_is_malformed(self, link_run, tmp_path, capsys):
        blob = link_run["proof"].read_bytes()
        bad = tmp_path / "magic.proof"
        bad.write_bytes(b"XXXX" + blob[4:])
        rc = main(["verify", "--proof", str(bad), "--trust", str(link_run["trust"])])
        assert rc == 1
        assert "MalformedProof" in capsys.readouterr().out

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


class TestInspect:
    def test_proof_summary(self, link_run, capsys):
        rc = main(["inspect", "--proof", str(link_run["proof"]), "--format", "json"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "link"
        assert obj["window"] == [1, 4]
        proof = decode_proof(link_run["proof"].read_bytes())
        assert obj["holder"] == proof.holder_id.hex()

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
