"""Run artifacts on disk: JSONL ledgers and the trust bundle.

Ledger files are line-delimited JSON: a header record first, data records
after.  Binary values travel as lowercase hex.  Output is deterministic:
compact separators, sorted keys, no timestamps, so two runs with the same
seed produce byte-identical files.

A truncated final line (a crash mid-append) is tolerated: the intact
prefix loads and a warning is logged.  Corruption anywhere else is an
error.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .keys import NodeId
from .node import Commitment, KeyDirectory

__all__ = [
    "LedgerError",
    "TrustBundle",
    "check_anchor_signatures",
    "commitment_from_row",
    "commitment_row",
    "load_trust_bundle",
    "read_ledger",
    "read_trust_bundle",
    "write_ledger",
    "write_trust_bundle",
]

logger = logging.getLogger("entmesh.ledger")

_FORMAT = "entmesh-ledger"
_VERSION = 1


class LedgerError(ValueError):
    pass


def _dump(row: dict) -> str:
    return json.dumps(row, separators=(",", ":"), sort_keys=True)


def write_ledger(path: "Path | str", kind: str, rows: Iterable[dict], meta: Optional[dict] = None) -> None:
    header = {"format": _FORMAT, "version": _VERSION, "kind": kind}
    if meta:
        header.update(meta)
    lines = [_dump(header)]
    lines.extend(_dump(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_ledger(path: "Path | str", expected_kind: Optional[str] = None) -> tuple[dict, list[dict]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LedgerError(f"{path}: not UTF-8: {exc}")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise LedgerError(f"{path}: empty ledger")
    rows: list[dict] = []
    for i, line in enumerate(lines):
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                logger.warning("%s: dropping truncated final record", path)
                break
            raise LedgerError(f"{path}: malformed record on line {i + 1}")
        except ValueError as exc:  # an integer past Python's int-string limit: whole, so not a truncation
            raise LedgerError(f"{path}: record on line {i + 1} is malformed: {exc}")
        except RecursionError:
            raise LedgerError(f"{path}: record on line {i + 1} is nested too deeply")
        if not isinstance(row, dict):
            raise LedgerError(f"{path}: record on line {i + 1} is not an object")
        rows.append(row)
    if not rows:
        raise LedgerError(f"{path}: no intact records")
    header, records = rows[0], rows[1:]
    if header.get("format") != _FORMAT:
        raise LedgerError(f"{path}: not a ledger file")
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise LedgerError(f"{path}: kind {header.get('kind')!r}, expected {expected_kind!r}")
    return header, records


def commitment_row(label: str, commitment: Commitment) -> dict:
    return {
        "node": label,
        "node_id": commitment.node_id.hex(),
        "round": commitment.round,
        "root": commitment.root.hex(),
        "commitment": commitment.to_bytes().hex(),
    }


def commitment_from_row(row: dict) -> Commitment:
    if not isinstance(row, dict):
        raise LedgerError("commitment record is not an object")
    try:
        c = Commitment.from_bytes(bytes.fromhex(row["commitment"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise LedgerError(f"bad commitment record: {exc}")
    round_no = _shaped(row.get("round"), int, "commitment record round")
    if c.node_id.hex() != row.get("node_id") or c.round != round_no or c.root.hex() != row.get("root"):
        raise LedgerError("commitment record fields disagree with the encoded bytes")
    return c


@dataclass
class TrustBundle:
    """What a verifier needs: keys, and each anchor's commitment log by node id."""

    seed: int
    topology: str
    directory: KeyDirectory
    node_ids: dict[str, NodeId]
    anchors: dict[NodeId, dict[int, Commitment]]


def write_trust_bundle(path: "Path | str", sim) -> None:
    """Extract the verification material from a finished simulation."""
    keys = {}
    for label in sim.topology.labels:
        node_id = sim.nodes[label].node_id
        keys[label] = {
            "node_id": node_id.hex(),
            "bindings": [
                {"from_round": from_round, "verify_key": vk.hex()}
                for from_round, vk in sim.directory.bindings_of(node_id)
            ],
        }
    anchors = {}
    for label in sim.topology.anchors:
        anchors[label] = [
            commitment_row(label, record.commitment) for record in sim.nodes[label].records
        ]
    bundle = {
        "format": "entmesh-trust",
        "version": _VERSION,
        "seed": sim.seed,
        "topology": sim.topology.name,
        "keys": keys,
        "anchors": anchors,
    }
    Path(path).write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _shaped(value, kind: type, what: str):
    # Valid JSON of the wrong shape is as malformed as invalid JSON.  The type
    # must match exactly: a JSON boolean is not an int, nor is 6.9 or "7".
    if type(value) is not kind:
        raise LedgerError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def load_trust_bundle(path: "Path | str") -> TrustBundle:
    """Load ``trust.json``, refusing it unless it keeps every rule in docs/FORMATS.md:
    the structural rules first, then each anchor row's signature."""
    bundle = read_trust_bundle(path)
    check_anchor_signatures(path, bundle)
    return bundle


def read_trust_bundle(path: "Path | str") -> TrustBundle:
    """Read ``trust.json`` under every structural rule in docs/FORMATS.md.  No
    anchor row's signature is checked: ``check_anchor_signatures`` does that."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 decode errors are ValueErrors, as is the int-string limit
        raise LedgerError(f"{path}: not valid JSON: {exc}")
    if not isinstance(raw, dict) or raw.get("format") != "entmesh-trust":
        raise LedgerError(f"{path}: not a trust bundle")
    directory = KeyDirectory()
    node_ids: dict[str, NodeId] = {}
    for label, entry in sorted(_shaped(raw.get("keys", {}), dict, f"{path}: keys").items()):
        where = f"{path}: bad key entry for {label!r}"
        bindings = _shaped(_shaped(entry, dict, where).get("bindings"), list, f"{where}: bindings")
        try:
            node_id = bytes.fromhex(entry["node_id"])
            rounds = [_shaped(binding["from_round"], int, "from_round") for binding in bindings]
            if rounds[:1] != [0] or rounds != sorted(set(rounds)):
                raise LedgerError(f"from_round values {rounds} must start at 0 and strictly ascend")
            directory.register(node_id, bytes.fromhex(bindings[0]["verify_key"]))
            for binding, from_round in zip(bindings[1:], rounds[1:]):
                directory.rebind(node_id, bytes.fromhex(binding["verify_key"]), from_round)
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"{where}: {exc}")
        node_ids[label] = node_id
    anchors: dict[NodeId, dict[int, Commitment]] = {}
    for label, rows in sorted(_shaped(raw.get("anchors", {}), dict, f"{path}: anchors").items()):
        where = f"{path}: anchor log for {label!r}"
        node_id = node_ids.get(label)
        if node_id is None:
            raise LedgerError(f"{where}: {label!r} has no key entry")
        log: dict[int, Commitment] = {}
        for row in _shaped(rows, list, where):
            c = commitment_from_row(row)
            if c.node_id != node_id:
                raise LedgerError(f"{where}: round {c.round} is another node's commitment")
            if row.get("node") != label:
                raise LedgerError(f"{where}: round {c.round} is labelled {row.get('node')!r}")
            if c.round in log:
                raise LedgerError(f"{where}: round {c.round} is listed twice")
            log[c.round] = c
        anchors[node_id] = log
    return TrustBundle(
        seed=_shaped(raw.get("seed", 0), int, f"{path}: seed"),
        topology=_shaped(raw.get("topology", ""), str, f"{path}: topology"),
        directory=directory,
        node_ids=node_ids,
        anchors=anchors,
    )


def check_anchor_signatures(path: "Path | str", bundle: TrustBundle) -> None:
    """Refuse ``bundle``, read from ``path``, unless each anchor row's signature
    verifies under the key bound to its node at its round."""
    labels = {node_id: label for label, node_id in bundle.node_ids.items()}
    for node_id, log in bundle.anchors.items():
        for c in log.values():
            if not bundle.directory.verify_commitment(c):
                raise LedgerError(f"{path}: anchor log for {labels[node_id]!r} has a bad signature at round {c.round}")
