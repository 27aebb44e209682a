"""Scenario files: strict YAML schema for simulation runs.

Unknown keys are fatal and every error names the offending field by its
dotted path, so a typo in a scenario cannot silently change a run.  Every
rule a run relies on is checked here, when the file loads, so a scenario
that loads runs to completion.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NoReturn, Optional

import yaml

from .identity import (
    Credential,
    CredentialMode,
    RecoveryCertificate,
    RecoveryPolicy,
    apply_recovery,
    endorse_recovery,
)
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
    # YAML's hex, octal and sexagesimal forms skip the decimal conversion that
    # enforces Python's int-string limit, so an integer past it is refused here,
    # before a message or a key derivation formats it.  0 means no limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if kind is int and limit and value.bit_length() > limit and abs(value) >= 10**limit:
        _fail(f"{path}.{key}", f"integer of more than {limit} digits, past the int-string limit")
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


def _federated_count(args: dict) -> int:
    nodes = tier = 1
    for _ in range(min(args["levels"], MAX_NODE_ROUNDS + 1) - 1):
        tier *= max(args["arity"], 0)
        nodes += tier
        if nodes > MAX_NODE_ROUNDS:
            break
    return nodes + args["holders"]


# kind -> (builder, its integer keys, its node count from those keys).
# Ring's optional `mutual` flag is the one key outside this table.
_TOPOLOGIES: dict[str, tuple[Callable[..., Topology], tuple[str, ...], Callable[[dict], int]]] = {
    "centralized": (centralized, ("holders",), lambda args: 1 + args["holders"]),
    "federated": (federated, ("levels", "arity", "holders"), _federated_count),
    "ring": (ring, ("size",), lambda args: args["size"]),
    "fan": (fan, ("partners",), lambda args: 1 + args["partners"]),
    "interoperated": (
        interoperated,
        ("left_holders", "right_holders"),
        lambda args: 2 + args["left_holders"] + args["right_holders"],
    ),
    "chain": (chain, ("hops",), lambda args: 1 + args["hops"]),
}


def _node_count(kind: str, args: dict) -> int:
    """How many nodes the builder would make, counted without building
    them; a federated count stops once it passes MAX_NODE_ROUNDS.  Values
    the builder rejects give some count, never an error."""
    return _TOPOLOGIES[kind][2](args)


def _build_topology(data: Any, path: str) -> Topology:
    mapping = dict(_need_mapping(data, path))
    kind = _take(mapping, "kind", path, str)
    if kind not in _TOPOLOGIES:
        _fail(f"{path}.kind", f"unknown topology kind {kind!r}")
    build, keys, _ = _TOPOLOGIES[kind]
    args = {key: _take(mapping, key, path, int) for key in keys}
    if kind == "ring":
        args["mutual"] = _take(mapping, "mutual", path, bool, False)
    _reject_extra(mapping, path)
    if _node_count(kind, args) > MAX_NODE_ROUNDS:
        _fail(path, f"more than {MAX_NODE_ROUNDS} nodes, the most rounds x nodes a scenario may run")
    try:
        return build(**args)
    except ValueError as exc:
        _fail(path, str(exc))


def _known_label(label: str, topo: Topology, path: str) -> str:
    if label not in topo.labels:
        _fail(path, f"unknown node label {label!r}")
    return label


def _take_round(mapping: dict, key: str, path: str, rounds: int) -> int:
    """A round the run reaches: 0 <= value < rounds."""
    value = _take(mapping, key, path, int)
    if value < 0:
        _fail(f"{path}.{key}", "must be non-negative")
    if value >= rounds:
        _fail(f"{path}.{key}", f"round {value} is beyond the last round {rounds - 1}")
    return value


def _build_fault(data: Any, topo: Topology, rounds: int, earlier: tuple, path: str):
    mapping = dict(_need_mapping(data, path))
    kind = _take(mapping, "kind", path, str)
    if kind not in ("equivocate", "withhold_receipt", "fork_history"):
        _fail(f"{path}.kind", f"unknown fault kind {kind!r}")
    node = _known_label(_take(mapping, "node", path, str), topo, f"{path}.node")
    if kind == "equivocate":
        if any(isinstance(fault, Equivocate) and fault.node == node for fault in earlier):
            _fail(f"{path}.node", f"{node!r} already equivocates")
        start = _take_round(mapping, "start_round", path, rounds)
        targets = _take_labels(mapping, "fork_targets", path)
        if not targets:
            _fail(f"{path}.fork_targets", "must name at least one holder")
        for target in targets:
            if target not in topo.holders_of(node):
                _fail(f"{path}.fork_targets", f"{target!r} does not submit to {node!r}")
        fault = Equivocate(node=node, start_round=start, fork_targets=targets)
    elif kind == "withhold_receipt":
        victim = _known_label(_take(mapping, "victim", path, str), topo, f"{path}.victim")
        if victim not in topo.holders_of(node):
            _fail(f"{path}.victim", f"{victim!r} does not submit to {node!r}")
        start = _take_round(mapping, "start_round", path, rounds)
        end = _take(mapping, "end_round", path, int, None)
        if end is not None and end < start:
            _fail(f"{path}.end_round", f"must not precede start_round {start}")
        fault = WithholdReceipt(node=node, victim=victim, start_round=start, end_round=end)
    else:
        round_no = _take_round(mapping, "round", path, rounds)
        if round_no == 0:
            _fail(f"{path}.round", "round 0 has no earlier round to rewrite")
        fault = ForkHistory(node=node, round=round_no)
    _reject_extra(mapping, path)
    return fault


# eq=False: a revoke binds the issue op itself, and a run keys the
# credential it issued by that op.
@dataclass(frozen=True, eq=False)
class _IdentityOp:
    op: str
    round: int
    fields: dict


def _build_identity_op(
    data: Any, topo: Topology, issuers: tuple[str, ...], rounds: int, earlier: tuple[_IdentityOp, ...], path: str
) -> _IdentityOp:
    mapping = dict(_need_mapping(data, path))
    op = _take(mapping, "op", path, str)
    if op not in ("issue", "revoke", "recover"):
        _fail(f"{path}.op", f"unknown identity op {op!r}")
    round_no = _take_round(mapping, "round", path, rounds)
    if op != "recover":
        issuer = _known_label(_take(mapping, "issuer", path, str), topo, f"{path}.issuer")
        if issuer not in issuers:
            _fail(f"{path}.issuer", f"{issuer!r} is not in credential_issuers")
    if op == "issue":
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
        # `credential: N` is the N-th issue op listed before this revoke.
        index = _take(mapping, "credential", path, int)
        issues = [earlier_op for earlier_op in earlier if earlier_op.op == "issue"]
        if not 0 <= index < len(issues):
            _fail(f"{path}.credential", f"references a credential not yet issued: {len(issues)} issue ops precede it")
        issue = issues[index]
        if issue.fields["issuer"] != issuer or issue.fields["mode"] is not CredentialMode.ISSUER_CONTROLLED:
            _fail(
                f"{path}.credential",
                f"{issuer!r} holds no record of it: only the issuer of an issuer-controlled credential can revoke it",
            )
        if issue.round > round_no:
            _fail(f"{path}.credential", f"is issued in round {issue.round}, after this revoke in round {round_no}")
        fields = {"issuer": issuer, "issue": issue}
    else:
        node = _known_label(_take(mapping, "node", path, str), topo, f"{path}.node")
        if node not in issuers:
            _fail(f"{path}.node", f"{node!r} must be in credential_issuers to commit its policy")
        # The run derives one recovery key per node, so a second recovery
        # could only re-bind the key the node already holds.
        if any(earlier_op.op == "recover" and earlier_op.fields["node"] == node for earlier_op in earlier):
            _fail(f"{path}.node", f"{node!r} already recovers its key")
        guardians = _take_labels(mapping, "guardians", path)
        for i, guardian in enumerate(guardians):
            _known_label(guardian, topo, f"{path}.guardians[{i}]")
            if guardian in guardians[:i]:
                _fail(f"{path}.guardians[{i}]", f"{guardian!r} is listed twice")
        threshold = _take(mapping, "threshold", path, int)
        if not 1 <= threshold <= len(guardians):
            _fail(f"{path}.threshold", f"must be between 1 and {len(guardians)}")
        enroll = _take(mapping, "enroll_round", path, int)
        if not 0 <= enroll < round_no:
            _fail(f"{path}.enroll_round", "must precede the recovery round")
        fields = {"node": node, "guardians": guardians, "threshold": threshold, "enroll_round": enroll}
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
    faults: tuple = ()
    for i, item in enumerate(_take(mapping, "faults", source, list, [])):
        faults += (_build_fault(item, topo, rounds, faults, f"{source}.faults[{i}]"),)
    ops: tuple[_IdentityOp, ...] = ()
    for i, item in enumerate(_take(mapping, "identity", source, list, [])):
        ops += (_build_identity_op(item, topo, issuers, rounds, ops, f"{source}.identity[{i}]"),)
    _reject_extra(mapping, source)
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
    try:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:  # a ValueError, so caught before the next clause
        raise ConfigError(f"{path}: not UTF-8 (byte {exc.object[exc.start]:#04x} at offset {exc.start})")
    except (yaml.YAMLError, ValueError) as exc:  # PyYAML's int and date constructors raise ValueError
        raise ConfigError(f"{path}: not valid YAML: {exc}")
    except RecursionError:  # PyYAML composes nested collections recursively
        raise ConfigError(f"{path}: nested too deeply")
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
    # Each revoke names the issue op it was bound to at load.
    credentials: dict[_IdentityOp, Credential] = {}
    for op in config.identity_ops:
        fields = op.fields
        if op.op == "issue":

            def run_issue(s: Simulation, op=op, fields=fields):
                registry = s.registry(fields["issuer"])
                cred = registry.issue(
                    s.nodes[fields["subject"]].node_id, fields["claims"], fields["mode"]
                )
                credentials[op] = cred
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
                digest = credentials[fields["issue"]].digest()
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
