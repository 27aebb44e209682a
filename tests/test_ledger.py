"""On-disk run artifacts: JSONL ledgers and the trust bundle."""

import json
import logging

import pytest

from entmesh.ledger import (
    LedgerError,
    commitment_from_row,
    commitment_row,
    load_trust_bundle,
    read_ledger,
    write_ledger,
    write_trust_bundle,
)
from entmesh.keys import keypair_from_seed
from entmesh.node import Node
from entmesh.simnet import Simulation, centralized


class TestLedgerFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        rows = [{"round": 0, "type": "A"}, {"round": 1, "type": "B", "z": [1, 2]}]
        write_ledger(path, "events", rows, meta={"seed": 7})
        header, back = read_ledger(path, expected_kind="events")
        assert back == rows
        assert header["kind"] == "events"
        assert header["seed"] == 7

    def test_output_is_deterministic(self, tmp_path):
        rows = [{"b": 2, "a": 1}]
        write_ledger(tmp_path / "x.jsonl", "k", rows)
        write_ledger(tmp_path / "y.jsonl", "k", rows)
        assert (tmp_path / "x.jsonl").read_bytes() == (tmp_path / "y.jsonl").read_bytes()
        assert b'"a":1,"b":2' in (tmp_path / "x.jsonl").read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_ledger(path, "metrics", [])
        with pytest.raises(LedgerError):
            read_ledger(path, expected_kind="events")

    def test_not_a_ledger(self, tmp_path):
        path = tmp_path / "random.jsonl"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(LedgerError):
            read_ledger(path)

    def test_truncated_tail_tolerated_with_warning(self, tmp_path, caplog):
        path = tmp_path / "events.jsonl"
        write_ledger(path, "events", [{"n": 1}, {"n": 2}])
        clipped = path.read_text()[:-4]  # cut into the last record
        path.write_text(clipped)
        with caplog.at_level(logging.WARNING, logger="entmesh.ledger"):
            _, rows = read_ledger(path, expected_kind="events")
        assert rows == [{"n": 1}]
        assert any("truncated" in message for message in caplog.messages)

    def test_corruption_mid_file_is_an_error(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_ledger(path, "events", [{"n": 1}, {"n": 2}])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-2] + "!!"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError):
            read_ledger(path)

    @pytest.mark.parametrize("line", [1, 2])
    def test_integer_past_the_int_string_limit_is_an_error(self, tmp_path, caplog, line):
        # Python reads no integer of more than 4,300 digits.  The line is
        # whole, so even the last one is refused, not dropped as truncated.
        path = tmp_path / "events.jsonl"
        write_ledger(path, "events", [{"n": 1}, {"n": 2}])
        lines = path.read_text().splitlines()
        lines[line] = '{"n":' + "9" * 5000 + "}"
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING, logger="entmesh.ledger"):
            with pytest.raises(LedgerError, match=f"line {line + 1} is malformed: .*4300"):
                read_ledger(path)
        assert caplog.messages == []

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_ledger(path, "events", [])
        path.write_text(path.read_text() + "[1,2]\n")
        with pytest.raises(LedgerError):
            read_ledger(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(LedgerError):
            read_ledger(path)


class TestCommitmentRows:
    def test_round_trip(self):
        node = Node("n", keypair_from_seed("ledger:n"))
        c = node.build(("x",)).commitment
        row = commitment_row("n", c)
        assert commitment_from_row(row) == c

    def test_cross_checked_fields(self):
        node = Node("n", keypair_from_seed("ledger:n"))
        c = node.build(("x",)).commitment
        row = commitment_row("n", c)
        row["round"] = 5
        with pytest.raises(LedgerError):
            commitment_from_row(row)

    def test_bad_hex_rejected(self):
        with pytest.raises(LedgerError):
            commitment_from_row({"commitment": "zz", "node_id": "", "round": 0, "root": ""})


class TestTrustBundle:
    def run_sim(self, seed=21):
        return Simulation(centralized(2), rounds=5, seed=seed).run()

    def test_round_trip(self, tmp_path):
        sim = self.run_sim()
        path = tmp_path / "trust.json"
        write_trust_bundle(path, sim)
        bundle = load_trust_bundle(path)

        assert bundle.seed == sim.seed
        assert bundle.topology == sim.topology.name
        assert bundle.node_ids["hub"] == sim.nodes["hub"].node_id
        assert bundle.node_ids["h0"] == sim.nodes["h0"].node_id

        trusted = bundle.anchors[sim.nodes["hub"].node_id]
        assert set(trusted) == set(range(5))
        for r, c in trusted.items():
            assert c == sim.nodes["hub"].record_at(r).commitment
            assert bundle.directory.verify_commitment(c)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_trust_bundle(a, self.run_sim())
        write_trust_bundle(b, self.run_sim())
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_anchor_rejected(self, tmp_path):
        path = tmp_path / "trust.json"
        write_trust_bundle(path, self.run_sim())
        raw = json.loads(path.read_text())
        raw["anchors"]["nobody"] = raw["anchors"].pop("hub")
        path.write_text(json.dumps(raw))
        with pytest.raises(LedgerError, match="'nobody' has no key entry"):
            load_trust_bundle(path)

    def test_tampered_commitment_rejected_at_load(self, tmp_path):
        path = tmp_path / "trust.json"
        write_trust_bundle(path, self.run_sim())
        raw = json.loads(path.read_text())
        row = raw["anchors"]["hub"][2]
        # Flip the root both in the summary field and the encoded bytes.
        blob = bytearray(bytes.fromhex(row["commitment"]))
        blob[40] ^= 0x01
        row["commitment"] = blob.hex()
        row["root"] = bytes.fromhex(row["root"])[:8].hex() + row["root"][16:]
        path.write_text(json.dumps(raw))
        with pytest.raises(LedgerError):
            load_trust_bundle(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text("{nope")
        with pytest.raises(LedgerError):
            load_trust_bundle(path)

    def test_integer_past_the_int_string_limit(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text('{"format": "entmesh-trust", "seed": ' + "9" * 5000 + "}")
        with pytest.raises(LedgerError, match="not valid JSON: .*4300"):
            load_trust_bundle(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "trust.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(LedgerError):
            load_trust_bundle(path)
