"""Scenario schema: strict keys, dotted error paths, cross-field checks."""

import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmesh.config import MAX_NODE_ROUNDS, ConfigError, _node_count, config_from_dict, load_config, make_simulation
from entmesh.ledger import load_trust_bundle, write_trust_bundle


def base(**overrides):
    data = {
        "name": "demo",
        "seed": 5,
        "rounds": 6,
        "topology": {"kind": "centralized", "holders": 2},
    }
    data.update(overrides)
    return data


class TestBasics:
    def test_minimal_config(self):
        config = config_from_dict({"rounds": 3, "topology": {"kind": "chain", "hops": 2}})
        assert config.rounds == 3
        assert config.seed == 0
        assert config.topology.name == "chain-2"

    def test_full_config(self):
        config = config_from_dict(base(prune_anchors=False, audit_every=2))
        assert config.name == "demo"
        assert not config.prune_anchors
        assert config.audit_every == 2

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"config\.roundz: unknown key"):
            config_from_dict(base(roundz=9))

    def test_unknown_topology_key(self):
        with pytest.raises(ConfigError, match=r"config\.topology\.extra: unknown key"):
            config_from_dict(base(topology={"kind": "centralized", "holders": 2, "extra": 1}))

    def test_missing_required_key(self):
        data = base()
        del data["rounds"]
        with pytest.raises(ConfigError, match="missing required key 'rounds'"):
            config_from_dict(data)

    def test_type_errors_name_the_field(self):
        with pytest.raises(ConfigError, match=r"config\.rounds: expected int"):
            config_from_dict(base(rounds="six"))

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match=r"config\.rounds: expected an integer, got a boolean"):
            config_from_dict(base(rounds=True))

    def test_rounds_must_be_positive(self):
        with pytest.raises(ConfigError, match=r"config\.rounds: must be at least 1"):
            config_from_dict(base(rounds=0))

    def test_not_a_mapping(self):
        with pytest.raises(ConfigError, match="expected a mapping"):
            config_from_dict(["rounds", 3])


class TestTopologySchema:
    @pytest.mark.parametrize(
        "spec,name",
        [
            ({"kind": "centralized", "holders": 3}, "centralized-3"),
            ({"kind": "federated", "levels": 2, "arity": 2, "holders": 4}, "federated-2x2-4"),
            ({"kind": "ring", "size": 4, "mutual": True}, "ring-mutual-4"),
            ({"kind": "fan", "partners": 3}, "fan-3"),
            ({"kind": "chain", "hops": 2}, "chain-2"),
            ({"kind": "interoperated", "left_holders": 1, "right_holders": 2}, "interoperated-1-2"),
        ],
    )
    def test_kinds(self, spec, name):
        config = config_from_dict(base(topology=spec))
        assert config.topology.name == name
        args = {key: value for key, value in spec.items() if key != "kind"}
        assert _node_count(spec["kind"], args) == len(config.topology.labels)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown topology kind"):
            config_from_dict(base(topology={"kind": "torus", "size": 4}))

    def test_builder_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match="at least three"):
            config_from_dict(base(topology={"kind": "ring", "size": 2}))


class TestSizeBound:
    def test_rounds_times_nodes_is_bounded(self):
        # centralized(2) has 3 nodes.
        assert config_from_dict(base(rounds=MAX_NODE_ROUNDS // 3)).rounds == MAX_NODE_ROUNDS // 3
        with pytest.raises(ConfigError, match=r"config\.rounds: 33334 rounds x 3 nodes is more than the 100000"):
            config_from_dict(base(rounds=MAX_NODE_ROUNDS // 3 + 1))
        with pytest.raises(ConfigError, match=r"config\.rounds: 100000000000 rounds"):
            config_from_dict(base(rounds=100_000_000_000))

    # Sizes just past the bound: without the check each would still build
    # in about a second and then fail on `rounds`, not hang.
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "centralized", "holders": MAX_NODE_ROUNDS},
            {"kind": "federated", "levels": MAX_NODE_ROUNDS, "arity": 1, "holders": 1},
            {"kind": "federated", "levels": 17, "arity": 2, "holders": 1},
            {"kind": "federated", "levels": 3, "arity": 400, "holders": 1},
            {"kind": "ring", "size": MAX_NODE_ROUNDS + 1},
            {"kind": "fan", "partners": MAX_NODE_ROUNDS},
            {"kind": "chain", "hops": MAX_NODE_ROUNDS},
            {"kind": "interoperated", "left_holders": 1, "right_holders": MAX_NODE_ROUNDS},
        ],
    )
    def test_topology_too_large_to_build(self, spec):
        with pytest.raises(ConfigError, match=r"config\.topology: more than 100000 nodes"):
            config_from_dict(base(topology=spec))

    def test_invalid_federated_size_keeps_its_reason(self):
        spec = {"kind": "federated", "levels": 10**11, "arity": -3, "holders": 1}
        with pytest.raises(ConfigError, match="must be positive"):
            config_from_dict(base(topology=spec))


class TestFaultSchema:
    def test_equivocate(self):
        config = config_from_dict(
            base(faults=[{"kind": "equivocate", "node": "hub", "start_round": 2, "fork_targets": ["h0"]}])
        )
        assert config.faults[0].fork_targets == ("h0",)

    def test_fork_target_must_submit_to_node(self):
        with pytest.raises(ConfigError, match="does not submit to"):
            config_from_dict(
                base(faults=[{"kind": "equivocate", "node": "h0", "start_round": 2, "fork_targets": ["h1"]}])
            )

    def test_withhold_victim_must_submit_to_node(self):
        with pytest.raises(ConfigError, match="does not submit to"):
            config_from_dict(
                base(
                    faults=[
                        {"kind": "withhold_receipt", "node": "h1", "victim": "h0", "start_round": 1, "end_round": 2}
                    ]
                )
            )

    def test_equivocation_start_is_non_negative(self):
        fault = {"kind": "equivocate", "node": "hub", "start_round": -1, "fork_targets": ["h0"]}
        with pytest.raises(ConfigError, match=r"faults\[0\]\.start_round: must be non-negative"):
            config_from_dict(base(faults=[fault]))

    def test_unknown_fault_kind(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            config_from_dict(base(faults=[{"kind": "gremlin", "node": "hub"}]))

    def test_unknown_fault_field(self):
        with pytest.raises(ConfigError, match=r"faults\[0\]\.sneaky: unknown key"):
            config_from_dict(
                base(faults=[{"kind": "fork_history", "node": "hub", "round": 2, "sneaky": 1}])
            )


class TestIdentitySchema:
    def issue_op(self, **overrides):
        op = {
            "op": "issue",
            "round": 2,
            "issuer": "hub",
            "subject": "h0",
            "mode": "issuer-controlled",
            "claims": "(role auditor)",
        }
        op.update(overrides)
        return op

    def test_issue_parses_claims(self):
        config = config_from_dict(base(credential_issuers=["hub"], identity=[self.issue_op()]))
        assert config.identity_ops[0].fields["claims"] == ("role", "auditor")

    def test_issuer_must_be_registered(self):
        with pytest.raises(ConfigError, match="not in credential_issuers"):
            config_from_dict(base(identity=[self.issue_op()]))

    def test_bad_claims_expression(self):
        op = self.issue_op(claims="(unbalanced")
        with pytest.raises(ConfigError, match="bad expression"):
            config_from_dict(base(credential_issuers=["hub"], identity=[op]))

    def test_claims_integer_past_the_int_string_limit(self):
        op = self.issue_op(claims="(role " + "9" * 5000 + ")")
        error = r"^config\.identity\[0\]\.claims: bad expression: integer literal of 5000 digits is too long \(offset 6\)$"
        with pytest.raises(ConfigError, match=error):
            config_from_dict(base(credential_issuers=["hub"], identity=[op]))

    def test_unknown_mode(self):
        op = self.issue_op(mode="fancy")
        with pytest.raises(ConfigError, match="unknown mode"):
            config_from_dict(base(credential_issuers=["hub"], identity=[op]))

    def test_revoke_needs_prior_issue(self):
        revoke = {"op": "revoke", "round": 3, "issuer": "hub", "credential": 0}
        with pytest.raises(ConfigError, match="not yet issued"):
            config_from_dict(base(credential_issuers=["hub"], identity=[revoke]))
        config = config_from_dict(
            base(credential_issuers=["hub"], identity=[self.issue_op(), revoke])
        )
        assert config.identity_ops[1].op == "revoke"

    @pytest.mark.parametrize(
        "issue", [{"mode": "holder-controlled"}, {"issuer": "h1"}], ids=["holder-controlled", "other-issuer"]
    )
    def test_revoke_needs_the_issuers_record(self, issue):
        revoke = {"op": "revoke", "round": 3, "issuer": "hub", "credential": 0}
        data = base(credential_issuers=["hub", "h1"], identity=[self.issue_op(**issue), revoke])
        with pytest.raises(ConfigError, match=r"identity\[1\]\.credential: 'hub' holds no record of it"):
            config_from_dict(data)

    def test_ops_must_fit_in_run(self):
        op = self.issue_op(round=99)
        with pytest.raises(ConfigError, match="beyond the last round"):
            config_from_dict(base(credential_issuers=["hub"], identity=[op]))

    def test_recover_enrollment_precedes_recovery(self):
        recover = {
            "op": "recover",
            "round": 3,
            "node": "hub",
            "enroll_round": 3,
            "guardians": ["h0", "h1"],
            "threshold": 1,
        }
        with pytest.raises(ConfigError, match="must precede"):
            config_from_dict(base(credential_issuers=["hub"], identity=[recover]))

    def test_recover_threshold_bounds(self):
        recover = {
            "op": "recover",
            "round": 3,
            "node": "hub",
            "enroll_round": 1,
            "guardians": ["h0", "h1"],
            "threshold": 3,
        }
        with pytest.raises(ConfigError, match="between 1 and 2"):
            config_from_dict(base(credential_issuers=["hub"], identity=[recover]))


class TestFiles:
    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("rounds: 4\ntopology:\n  kind: fan\n  partners: 2\n")
        config = load_config(path)
        assert config.rounds == 4

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("rounds: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("seed: " + "9" * 5000, "Exceeds the limit (4300 digits) for integer string conversion"),
            ("seed: 2020-02-30", "day is out of range for month"),
        ],
        ids=["int-past-the-int-string-limit", "date-past-the-month"],
    )
    def test_value_pyyaml_cannot_construct(self, tmp_path, text, reason):
        # PyYAML's constructors raise ValueError for these; the loader names the file.
        path = tmp_path / "value.yaml"
        path.write_text(f"rounds: 4\n{text}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}: not valid YAML: {reason}')}"):
            load_config(path)

    # Integers PyYAML builds without the decimal conversion that enforces the limit.
    PAST_THE_LIMIT = {
        "hex": "0x" + "f" * 5000,
        "octal": "0" + "7" * 5000,
        "binary": "0b" + "1" * 15000,
        "sexagesimal": "1" + ":59" * 3000,
    }
    SCENARIO = "rounds: {rounds}\nseed: {seed}\ntopology:\n  kind: centralized\n  holders: {holders}\n"
    FAULT = "faults:\n  - kind: withhold_receipt\n    node: hub\n    victim: h0\n    start_round: {start_round}\n"

    @pytest.mark.parametrize("form", sorted(PAST_THE_LIMIT))
    @pytest.mark.parametrize("key", ["seed", "rounds", "topology.holders", "faults[0].start_round"])
    def test_integer_form_past_the_int_string_limit(self, tmp_path, key, form):
        values = {"rounds": 4, "seed": 0, "holders": 3, "start_round": 1}
        values[key.rpartition(".")[2]] = self.PAST_THE_LIMIT[form]
        path = tmp_path / "big.yaml"
        path.write_text((self.SCENARIO + self.FAULT).format(**values))
        limit = sys.get_int_max_str_digits()
        message = f"{path}.{key}: integer of more than {limit} digits, past the int-string limit"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_integer_at_the_int_string_limit_loads(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "seed.yaml"
        for seed, loads in ((10**limit - 1, True), (10**limit, False)):
            path.write_text(self.SCENARIO.format(rounds=2, seed=hex(seed), holders=1))
            if loads:
                assert load_config(path).seed == seed
            else:
                with pytest.raises(ConfigError, match=r"\.seed: integer of more than"):
                    load_config(path)

    def test_deeply_nested_yaml(self, tmp_path):
        path = tmp_path / "deep.yaml"
        path.write_text("rounds: " + "[" * 5000 + "]" * 5000 + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: nested too deeply$"):
            load_config(path)

    def test_bundled_scenarios_all_parse_and_run_shape(self):
        import pathlib

        scenario_dir = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
        files = sorted(scenario_dir.glob("*.yaml"))
        assert len(files) >= 8
        for f in files:
            config = load_config(f)
            assert config.rounds >= 1

    def test_make_simulation_override_seed(self):
        config = config_from_dict(base())
        sim = make_simulation(config, seed=99)
        assert sim.seed == 99
        assert make_simulation(config).seed == 5


# Small topologies (at most 10 nodes) keep each generated run short.
FUZZ_TOPOLOGIES = [
    {"kind": "centralized", "holders": 3},
    {"kind": "federated", "levels": 2, "arity": 2, "holders": 4},
    {"kind": "ring", "size": 4, "mutual": True},
    {"kind": "fan", "partners": 3},
    {"kind": "interoperated", "left_holders": 2, "right_holders": 2},
    {"kind": "chain", "hops": 3},
]


@st.composite
def generated_scenarios(draw):
    """A scenario whose fault and identity lists are drawn op by op: kinds,
    labels (one of them unknown), rounds from 0 to rounds + 1, credential
    indices, guardian lists with repeats and recover ops listed twice.
    Labels, rounds, guardians and thresholds lean towards the ones a field
    accepts, so that many scenarios load."""
    spec = draw(st.sampled_from(FUZZ_TOPOLOGIES))
    rounds = draw(st.integers(1, 8))
    topo = config_from_dict({"rounds": 1, "topology": spec}).topology
    labels = st.sampled_from(topo.labels + ("nobody",))
    round_no = st.integers(0, rounds - 1) | st.integers(0, rounds + 1)
    issuers = draw(st.lists(st.sampled_from(topo.labels), min_size=1, max_size=3))
    issuer = st.sampled_from(issuers) | labels

    def holder_of(node):
        return st.sampled_from(topo.holders_of(node)) if topo.holders_of(node) else labels

    def fault():
        kind = draw(st.sampled_from(["equivocate", "withhold_receipt", "fork_history"]))
        node = draw(labels)
        out = {"kind": kind, "node": node}
        if kind == "equivocate":
            out.update(start_round=draw(round_no), fork_targets=draw(st.lists(holder_of(node), min_size=1, max_size=3)))
        elif kind == "withhold_receipt":
            out.update(victim=draw(holder_of(node)), start_round=draw(round_no))
            if draw(st.booleans()):
                out["end_round"] = draw(round_no)
        else:
            out["round"] = draw(round_no)
        return out

    def identity_op(issues):
        op = draw(st.sampled_from(["issue", "revoke", "recover"]))
        out = {"op": op, "round": draw(round_no)}
        if op == "issue":
            out.update(issuer=draw(issuer), subject=draw(labels))
            out["mode"] = draw(st.sampled_from(["issuer-controlled", "holder-controlled"]))
        elif op == "revoke":
            out.update(issuer=draw(issuer), credential=draw(st.integers(-1, issues)))
        else:
            known = st.lists(st.sampled_from(topo.labels), min_size=1, max_size=4, unique=True)
            guardians = draw(known | st.lists(labels, max_size=4))
            threshold = st.integers(1, max(1, len(guardians))) | st.integers(0, len(guardians) + 1)
            out.update(node=draw(issuer), guardians=guardians, threshold=draw(threshold))
            out["enroll_round"] = draw(st.integers(0, max(0, out["round"] - 1)) | st.integers(-1, rounds))
        return out

    ops: list[dict] = []
    for _ in range(draw(st.integers(0, 4))):
        recovers = [op for op in ops if op["op"] == "recover"]
        if recovers and draw(st.booleans()):
            ops.append(dict(draw(st.sampled_from(recovers))))
        else:
            ops.append(identity_op(sum(op["op"] == "issue" for op in ops)))

    return {
        "rounds": rounds,
        "topology": spec,
        "audit_every": draw(st.integers(0, 3)),
        "prune_anchors": draw(st.booleans()),
        "credential_issuers": issuers,
        "faults": [fault() for _ in range(draw(st.integers(0, 2)))],
        "identity": ops,
    }


# One recovery listed twice, as a scenario file can list it.
_RECOVER = {"op": "recover", "round": 6, "node": "h1", "enroll_round": 2, "guardians": ["hub", "h0", "h2"], "threshold": 2}
RECOVER_TWICE = {
    "rounds": 8,
    "topology": {"kind": "centralized", "holders": 3},
    "credential_issuers": ["h1"],
    "identity": [_RECOVER, _RECOVER],
}

# A history fork at the round a recovery takes effect rewrites a round the old key is bound to.
FORK_AT_RECOVERY = {
    "rounds": 2,
    "topology": {"kind": "centralized", "holders": 3},
    "credential_issuers": ["hub"],
    "faults": [{"kind": "fork_history", "node": "hub", "round": 1}],
    "identity": [{"op": "recover", "round": 1, "node": "hub", "guardians": ["hub"], "threshold": 1, "enroll_round": 0}],
}


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated-bundles")


class TestGeneratedScenarios:
    @settings(max_examples=300, deadline=None)
    @given(data=generated_scenarios())
    def test_a_scenario_that_loads_runs(self, data):
        try:
            config = config_from_dict(data)
        except ConfigError:
            return
        make_simulation(config).run()

    @settings(max_examples=300, deadline=None)
    @given(data=generated_scenarios())
    @example(data=RECOVER_TWICE)
    @example(data=FORK_AT_RECOVERY)
    def test_a_run_writes_a_trust_bundle_that_loads(self, bundle_dir, data):
        try:
            config = config_from_dict(data)
        except ConfigError:
            return
        sim = make_simulation(config).run()
        path = bundle_dir / "trust.json"
        write_trust_bundle(path, sim)
        bundle = load_trust_bundle(path)
        assert bundle.node_ids == {label: node.node_id for label, node in sim.nodes.items()}
        assert set(bundle.anchors) == {sim.nodes[label].node_id for label in sim.topology.anchors}
