"""Scenario files: strict YAML schema for simulation runs.

Unknown keys are fatal and every error names the offending field by its
dotted path, so a typo in a scenario cannot silently change a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional

import yaml

from .identity import CredentialMode, RecoveryPolicy, apply_recovery, endorse_recovery, RecoveryCertificate
from .keys import keypair_from_seed
from .sexpr import ParseError, parse
from .simnet import (
    Equivocate,
    ForkHistory,
    Simulation,
    Topology,
    WithholdReceipt,
    centralized,
    chain,
    fan,
    federated,
    interoperated,
    ring,
)

__all__ = ["ConfigError", "MAX_NODE_ROUNDS", "ScenarioConfig", "load_config", "config_from_dict", "make_simulation"]

_MISSING = object()

# Most rounds x nodes one scenario may run (docs/FORMATS.md).  A run costs
# about 1 ms and 6 KB per node-round, so one at the bound takes minutes and
# well under a gigabyte; past it a typo in `rounds` would run until killed.
MAX_NODE_ROUNDS = 100_000


class ConfigError(ValueError):
    pass


def _fail(path: str, message: str) -> NoReturn:
    raise ConfigError(f"{path}: {message}")


def _need_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    for key in value:
        if not isinstance(key, str):
            _fail(path, f"non-string key {key!r}")
    return value


def _take(mapping: dict, key: str, path: str, kind: type, default: Any = _MISSING) -> Any:
    if key not in mapping:
        if default is _MISSING:
            _fail(path, f"missing required key {key!r}")
        return default
    value = mapping.pop(key)
    if kind is int and isinstance(value, bool):
        _fail(f"{path}.{key}", "expected an integer, got a boolean")
    if not isinstance(value, kind):
        _fail(f"{path}.{key}", f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _reject_extra(mapping: dict, path: str) -> None:
    if mapping:
        name = sorted(mapping)[0]
        _fail(f"{path}.{name}", "unknown key")


def _take_labels(mapping: dict, key: str, path: str, default: Any = _MISSING) -> tuple[str, ...]:
    if key not in mapping and default is not _MISSING:
        return default
    value = _take(mapping, key, path, list)
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, str):
            _fail(f"{path}.{key}[{i}]", "expected a node label")
        out.append(item)
    return tuple(out)


_TOPOLOGY_BUILDERS: dict[str, Callable[..., Topology]] = {
    "centralized": centralized,
    "federated": federated,
    "ring": ring,
    "fan": fan,
    "interoperated": interoperated,
    "chain": chain,
}


def _node_count(kind: str, args: dict) -> int:
    """How many nodes the builder would make, counted without building
    them; a federated count stops once it passes MAX_NODE_ROUNDS.  Values
    the builder rejects give some count, never an error."""
    if kind == "federated":
        nodes = tier = 1
        for _ in range(min(args["levels"], MAX_NODE_ROUNDS + 1) - 1):
            tier *= max(args["arity"], 0)
            nodes += tier
            if nodes > MAX_NODE_ROUNDS:
                break
        return nodes + args["holders"]
    if kind == "ring":
        return args["size"]
    if kind == "interoperated":
        return 2 + args["left_holders"] + args["right_holders"]
    # centralized, fan and chain: one node more than their single count.
    (count,) = args.values()
    return 1 + count


def _build_topology(data: Any, path: str) -> Topology:
    mapping = dict(_need_mapping(data, path))
    kind = _take(mapping, "kind", path, str)
    if kind == "centralized":
        args = {"holders": _take(mapping, "holders", path, int)}
    elif kind == "federated":
        args = {
            "levels": _take(mapping, "levels", path, int),
            "arity": _take(mapping, "arity", path, int),
            "holders": _take(mapping, "holders", path, int),
        }
    elif kind == "ring":
        args = {
            "size": _take(mapping, "size", path, int),
            "mutual": _take(mapping, "mutual", path, bool, False),
        }
    elif kind == "fan":
        args = {"partners": _take(mapping, "partners", path, int)}
    elif kind == "interoperated":
        args = {
            "left_holders": _take(mapping, "left_holders", path, int),
            "right_holders": _take(mapping, "right_holders", path, int),
        }
    elif kind == "chain":
        args = {"hops": _take(mapping, "hops", path, int)}
    else:
        _fail(f"{path}.kind", f"unknown topology kind {kind!r}")
    _reject_extra(mapping, path)
    if _node_count(kind, args) > MAX_NODE_ROUNDS:
        _fail(path, f"more than {MAX_NODE_ROUNDS} nodes, the most rounds x nodes a scenario may run")
    try:
        return _TOPOLOGY_BUILDERS[kind](**args)
    except ValueError as exc:
        _fail(path, str(exc))


def _known_label(label: str, topo: Topology, path: str) -> str:
    if label not in topo.labels:
        _fail(path, f"unknown node label {label!r}")
    return label


def _build_fault(data: Any, topo: Topology, path: str):
    mapping = dict(_need_mapping(data, path))
    kind = _take(mapping, "kind", path, str)
    if kind == "equivocate":
        node = _known_label(_take(mapping, "node", path, str), topo, f"{path}.node")
        start = _take(mapping, "start_round", path, int)
        if start < 0:
            _fail(f"{path}.start_round", "must be non-negative")
        targets = _take_labels(mapping, "fork_targets", path)
        if not targets:
            _fail(f"{path}.fork_targets", "must name at least one holder")
        for target in targets:
            if target not in topo.holders_of(node):
                _fail(f"{path}.fork_targets", f"{target!r} does not submit to {node!r}")
        fault = Equivocate(node=node, start_round=start, fork_targets=targets)
    elif kind == "withhold_receipt":
        node = _known_label(_take(mapping, "node", path, str), topo, f"{path}.node")
        victim = _known_label(_take(mapping, "victim", path, str), topo, f"{path}.victim")
        if victim not in topo.holders_of(node):
            _fail(f"{path}.victim", f"{victim!r} does not submit to {node!r}")
        fault = WithholdReceipt(
            node=node,
            victim=victim,
            start_round=_take(mapping, "start_round", path, int),
            end_round=_take(mapping, "end_round", path, int, None),
        )
    elif kind == "fork_history":
        fault = ForkHistory(
            node=_known_label(_take(mapping, "node", path, str), topo, f"{path}.node"),
            round=_take(mapping, "round", path, int),
        )
    else:
        _fail(f"{path}.kind", f"unknown fault kind {kind!r}")
    _reject_extra(mapping, path)
    return fault


@dataclass(frozen=True)
class _IdentityOp:
    op: str
    round: int
    fields: dict


def _build_identity_op(data: Any, topo: Topology, issuers: tuple[str, ...], path: str) -> _IdentityOp:
    mapping = dict(_need_mapping(data, path))
    op = _take(mapping, "op", path, str)
    round_no = _take(mapping, "round", path, int)
    if round_no < 0:
        _fail(f"{path}.round", "must be non-negative")
    if op == "issue":
        issuer = _known_label(_take(mapping, "issuer", path, str), topo, f"{path}.issuer")
        if issuer not in issuers:
            _fail(f"{path}.issuer", f"{issuer!r} is not in credential_issuers")
        subject = _known_label(_take(mapping, "subject", path, str), topo, f"{path}.subject")
        mode_text = _take(mapping, "mode", path, str, CredentialMode.ISSUER_CONTROLLED.value)
        try:
            mode = CredentialMode(mode_text)
        except ValueError:
            _fail(f"{path}.mode", f"unknown mode {mode_text!r}")
        claims_text = _take(mapping, "claims", path, str, "(claim)")
        try:
            claims = parse(claims_text)
        except ParseError as exc:
            _fail(f"{path}.claims", f"bad expression: {exc}")
        fields = {"issuer": issuer, "subject": subject, "mode": mode, "claims": claims}
    elif op == "revoke":
        issuer = _known_label(_take(mapping, "issuer", path, str), topo, f"{path}.issuer")
        if issuer not in issuers:
            _fail(f"{path}.issuer", f"{issuer!r} is not in credential_issuers")
        index = _take(mapping, "credential", path, int)
        if index < 0:
            _fail(f"{path}.credential", "must be an index into earlier issue ops")
        fields = {"issuer": issuer, "credential": index}
    elif op == "recover":
        node = _known_label(_take(mapping, "node", path, str), topo, f"{path}.node")
        if node not in issuers:
            _fail(f"{path}.node", f"{node!r} must be in credential_issuers to commit its policy")
        guardians = _take_labels(mapping, "guardians", path)
        for i, guardian in enumerate(guardians):
            _known_label(guardian, topo, f"{path}.guardians[{i}]")
        threshold = _take(mapping, "threshold", path, int)
        if not 1 <= threshold <= len(guardians):
            _fail(f"{path}.threshold", f"must be between 1 and {len(guardians)}")
        enroll = _take(mapping, "enroll_round", path, int)
        if not 0 <= enroll < round_no:
            _fail(f"{path}.enroll_round", "must precede the recovery round")
        fields = {"node": node, "guardians": guardians, "threshold": threshold, "enroll_round": enroll}
    else:
        _fail(f"{path}.op", f"unknown identity op {op!r}")
    _reject_extra(mapping, path)
    return _IdentityOp(op=op, round=round_no, fields=fields)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    rounds: int
    topology: Topology
    prune_anchors: bool = True
    audit_every: int = 0
    credential_issuers: tuple[str, ...] = ()
    faults: tuple = ()
    identity_ops: tuple[_IdentityOp, ...] = ()
    description: str = ""


def config_from_dict(data: Any, source: str = "config") -> ScenarioConfig:
    mapping = dict(_need_mapping(data, source))
    topo = _build_topology(_take(mapping, "topology", source, dict), f"{source}.topology")
    name = _take(mapping, "name", source, str, topo.name)
    description = _take(mapping, "description", source, str, "")
    seed = _take(mapping, "seed", source, int, 0)
    rounds = _take(mapping, "rounds", source, int)
    if rounds < 1:
        _fail(f"{source}.rounds", "must be at least 1")
    if rounds * len(topo.labels) > MAX_NODE_ROUNDS:
        _fail(
            f"{source}.rounds",
            f"{rounds} rounds x {len(topo.labels)} nodes is more than the {MAX_NODE_ROUNDS} node-rounds a scenario may run",
        )
    prune = _take(mapping, "prune_anchors", source, bool, True)
    audit_every = _take(mapping, "audit_every", source, int, 0)
    if audit_every < 0:
        _fail(f"{source}.audit_every", "must be non-negative")
    issuers = _take_labels(mapping, "credential_issuers", source, ())
    for i, issuer in enumerate(issuers):
        _known_label(issuer, topo, f"{source}.credential_issuers[{i}]")
    raw_faults = _take(mapping, "faults", source, list, [])
    faults = tuple(
        _build_fault(item, topo, f"{source}.faults[{i}]") for i, item in enumerate(raw_faults)
    )
    raw_ops = _take(mapping, "identity", source, list, [])
    ops = tuple(
        _build_identity_op(item, topo, issuers, f"{source}.identity[{i}]")
        for i, item in enumerate(raw_ops)
    )
    _reject_extra(mapping, source)
    issues: list[_IdentityOp] = []
    for i, op in enumerate(ops):
        if op.round >= rounds:
            _fail(f"{source}.identity[{i}]", f"round {op.round} is beyond the last round {rounds - 1}")
        if op.op == "revoke":
            if op.fields["credential"] >= len(issues):
                _fail(f"{source}.identity[{i}].credential", "references a credential not yet issued")
            issued = issues[op.fields["credential"]].fields
            if issued["issuer"] != op.fields["issuer"] or issued["mode"] is not CredentialMode.ISSUER_CONTROLLED:
                _fail(
                    f"{source}.identity[{i}].credential",
                    f"{op.fields['issuer']!r} holds no record of it: only the issuer of an issuer-controlled credential can revoke it",
                )
        if op.op == "issue":
            issues.append(op)
    return ScenarioConfig(
        name=name,
        seed=seed,
        rounds=rounds,
        topology=topo,
        prune_anchors=prune,
        audit_every=audit_every,
        credential_issuers=issuers,
        faults=faults,
        identity_ops=ops,
        description=description,
    )


def load_config(path: "Path | str") -> ScenarioConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}")
    return config_from_dict(data, source=str(path))


def make_simulation(config: ScenarioConfig, seed: Optional[int] = None) -> Simulation:
    """Instantiate a run, wiring scheduled identity operations in."""
    sim = Simulation(
        topology=config.topology,
        rounds=config.rounds,
        seed=config.seed if seed is None else seed,
        faults=config.faults,
        prune_anchors=config.prune_anchors,
        credential_issuers=config.credential_issuers,
        audit_every=config.audit_every,
    )
    issued: list = []
    for op in config.identity_ops:
        fields = op.fields
        if op.op == "issue":

            def run_issue(s: Simulation, fields=fields):
                registry = s.registry(fields["issuer"])
                cred = registry.issue(
                    s.nodes[fields["subject"]].node_id, fields["claims"], fields["mode"]
                )
                issued.append(cred)
                s._event(
                    "CredentialIssued",
                    issuer=fields["issuer"],
                    subject=fields["subject"],
                    mode=fields["mode"].value,
                    digest=cred.digest().hex(),
                )

            sim.at(op.round, run_issue, phase="pre")
        elif op.op == "revoke":

            def run_revoke(s: Simulation, fields=fields):
                index = fields["credential"]
                if index >= len(issued):
                    raise ConfigError(f"identity revoke references credential {index} before it is issued")
                digest = issued[index].digest()
                s.registry(fields["issuer"]).revoke(digest)
                s._event("CredentialRevoked", issuer=fields["issuer"], digest=digest.hex())

            sim.at(op.round, run_revoke, phase="pre")
        elif op.op == "recover":
            policy = RecoveryPolicy(
                threshold=fields["threshold"],
                guardians=tuple(sim.nodes[g].node_id for g in fields["guardians"]),
            )

            def enroll(s: Simulation, fields=fields, policy=policy):
                s.registry(fields["node"]).commit_digest(policy.digest())

            def run_recover(s: Simulation, fields=fields, policy=policy):
                label = fields["node"]
                node = s.nodes[label]
                new_keypair = keypair_from_seed(f"{s.seed}:{label}:recovery")
                endorsements = tuple(
                    endorse_recovery(s.nodes[g].keypair, node.node_id, new_keypair.verify_key)
                    for g in fields["guardians"]
                )
                cert = RecoveryCertificate(
                    old_id=node.node_id,
                    new_verify_key=new_keypair.verify_key,
                    policy=policy,
                    endorsements=endorsements,
                    effective_round=s.round,
                )
                verdict = apply_recovery(
                    node, s.directory, cert, new_keypair, policy_digest=policy.digest()
                )
                s._event(
                    "KeyRecovered" if verdict else "RecoveryRejected",
                    node=label,
                    effective_round=s.round,
                    reason=verdict.reason,
                )

            sim.at(fields["enroll_round"], enroll, phase="pre")
            sim.at(op.round, run_recover, phase="pre")
    return sim
