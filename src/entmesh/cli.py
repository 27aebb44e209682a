"""Command line front end.

Exit codes: 0 success, 1 verification failure (including malformed proof
or trust material), 2 bad configuration or arguments, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

from .config import ConfigError, load_config, make_simulation
from .entangle import (
    HubProof,
    LinkProof,
    MissingReceiptError,
    build_chain_proof,
    build_hub_proof,
    build_link_proof,
    decode_proof,
    encode_proof,
    hop_windows,
    last_holder_round,
    verify_chain,
    verify_hub,
    verify_link,
)
from .ledger import (
    LedgerError,
    check_anchor_signatures,
    commitment_row,
    load_trust_bundle,
    read_ledger,
    read_trust_bundle,
    write_ledger,
    write_trust_bundle,
)
from .node import Verdict
from .simnet import Simulation
from .wire import WireError

__all__ = ["main"]


def _emit(fmt: str, lines: list[str], obj: dict) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    sim = make_simulation(config, seed=args.seed).run()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        meta = {
            "scenario": config.name,
            "seed": sim.seed,
            "rounds": sim.rounds,
            "topology": sim.topology.name,
        }
        write_ledger(out / "metrics.jsonl", "metrics", sim.metrics_rows(), meta)
        write_ledger(out / "events.jsonl", "events", sim.events, meta)
        commitments = [
            commitment_row(label, record.commitment)
            for label in sim.topology.labels
            for record in sim.nodes[label].records
        ]
        write_ledger(out / "commitments.jsonl", "commitments", commitments, meta)
        write_trust_bundle(out / "trust.json", sim)
    detected = sum(1 for e in sim.events if e["type"] == "EquivocationDetected")
    summary = {
        "scenario": config.name,
        "topology": sim.topology.name,
        "nodes": len(sim.topology.labels),
        "rounds": sim.rounds,
        "bytes_sent": sim.total_bytes_sent(),
        "events": len(sim.events),
        "equivocations_detected": detected,
        "out": str(args.out) if args.out else None,
    }
    lines = [
        f"scenario {config.name}: {summary['nodes']} nodes, {sim.rounds} rounds",
        f"  topology: {sim.topology.name}",
        f"  bytes sent: {summary['bytes_sent']}",
        f"  events: {summary['events']} ({detected} equivocation detections)",
    ]
    if args.out:
        lines.append(f"  artifacts: {args.out}")
    _emit(args.format, lines, summary)
    return 0


def _rounds_to_run(config, reads) -> int:
    """How many rounds ``prove`` runs: until every holder round its proof reads,
    each a (label, last round read) pair in ``reads``, is final, so the proof,
    or the error, is that of a run of every round.  A proof that reads past
    the scenario runs all of it, and fails as before."""
    final = max((Simulation.rounds_until_final(config.faults, label, r) for label, r in reads), default=1)
    return min(config.rounds, max(1, final))


def cmd_prove(args) -> int:
    config = load_config(args.config)
    holder, labels = args.holder, config.topology.labels
    # Argument errors are refused before the run.
    if holder not in labels:
        raise ConfigError(f"unknown node label {holder!r}")
    if args.kind == "link" and not args.issuer:
        raise ConfigError("cannot build proof: --issuer is required for link proofs")
    if args.kind == "link" and args.issuer not in labels:
        raise ConfigError(f"cannot build proof: unknown node label {args.issuer!r}")
    start, end = args.start, args.start if args.end is None else args.end
    if args.kind == "chain":
        try:
            path = config.topology.path_to_anchor(holder)
        except ValueError as exc:
            raise ConfigError(f"cannot build proof: {exc}")
        windows = hop_windows(start, args.window, len(path) - 1)
        reads = [(label, last_holder_round(window)) for label, window in zip(path, windows)]
    else:
        reads = [(holder, last_holder_round((start, end)))]
    sim = make_simulation(dataclasses.replace(config, rounds=_rounds_to_run(config, reads)), seed=args.seed).run()
    records = sim.nodes[holder].records
    receipts = sim.nodes[holder].receipt_log
    try:
        if args.kind == "link":
            proof = build_link_proof(records, sim.nodes[args.issuer].node_id, (start, end), receipts)
            descr = f"link {holder} -> {args.issuer}, rounds [{start}, {end}]"
        elif args.kind == "hub":
            proof = build_hub_proof(records, (start, end), receipts)
            descr = f"hub {holder}, {len(proof.manifest)} links, rounds [{start}, {end}]"
        else:
            ids = [sim.nodes[label].node_id for label in path]
            proof = build_chain_proof(
                sim.records_by_id(), sim.receipts_by_id(), ids, start, args.window
            )
            descr = f"chain {' -> '.join(path)}, {len(proof.hops)} hops from round {start}"
    except (MissingReceiptError, ValueError) as exc:
        raise ConfigError(f"cannot build proof: {exc}")
    blob = encode_proof(proof)
    Path(args.out).write_bytes(blob)
    summary = {
        "kind": args.kind,
        "holder": holder,
        "bytes": len(blob),
        "out": str(args.out),
        "description": descr,
    }
    _emit(args.format, [f"wrote {args.kind} proof ({len(blob)} bytes): {descr}", f"  -> {args.out}"], summary)
    return 0


def _verdict_exit(fmt: str, kind: str, verdict: Verdict) -> int:
    obj = {
        "ok": bool(verdict),
        "kind": kind,
        "reason": verdict.reason,
        "detail": verdict.detail,
        "signatures_checked": verdict.signatures_checked,
        "inclusion_proofs_checked": verdict.inclusion_proofs_checked,
    }
    if verdict:
        _emit(fmt, [f"OK: {kind} proof verifies"], obj)
        return 0
    _emit(fmt, [f"FAIL: {verdict.reason}" + (f" ({verdict.detail})" if verdict.detail else "")], obj)
    return 1


def _malformed(fmt: str, what: str, detail: str) -> int:
    _emit(fmt, [f"FAIL: {what} ({detail})"], {"ok": False, "reason": what, "detail": detail})
    return 1


def cmd_verify(args) -> int:
    blob = Path(args.proof).read_bytes()
    try:
        proof = decode_proof(blob)
    except (WireError, ValueError) as exc:
        return _malformed(args.format, "MalformedProof", str(exc))
    try:
        bundle = read_trust_bundle(args.trust)
    except LedgerError as exc:
        return _malformed(args.format, "MalformedTrust", str(exc))
    kind, verdict = _verdict(proof, bundle)
    # Anchor rows are authenticated last, so a refused proof costs no
    # Ed25519 check; an OK still needs every row's signature.
    if verdict:
        try:
            check_anchor_signatures(args.trust, bundle)
        except LedgerError as exc:
            return _malformed(args.format, "MalformedTrust", str(exc))
    return _verdict_exit(args.format, kind, verdict)


def _verdict(proof, bundle) -> tuple[str, Verdict]:
    """The proof's kind and its verdict against ``bundle``'s anchor logs."""
    if isinstance(proof, HubProof):
        return "hub", verify_hub(proof, bundle.anchors, bundle.directory)
    if isinstance(proof, LinkProof):
        kind, verify, trusted = "link", verify_link, bundle.anchors.get(proof.issuer_id)
        missing = "issuer has no anchor log in the trust bundle"
    else:
        kind, verify, trusted = "chain", verify_chain, bundle.anchors.get(proof.anchor_id)
        missing = "anchor has no log in the trust bundle"
    if trusted is None:
        return kind, Verdict.failed("TrustedRootUnavailable", missing)
    return kind, verify(proof, trusted, bundle.directory)


def cmd_inspect(args) -> int:
    if args.proof:
        blob = Path(args.proof).read_bytes()
        try:
            proof = decode_proof(blob)
        except (WireError, ValueError) as exc:
            return _malformed(args.format, "MalformedProof", str(exc))
        if isinstance(proof, LinkProof):
            obj = {
                "kind": "link",
                "holder": proof.holder_id.hex(),
                "issuer": proof.issuer_id.hex(),
                "window": [proof.window_start, proof.window_end],
                "receipts": len(proof.rounds),
                "bytes": len(blob),
            }
            lines = [
                f"link proof, rounds [{proof.window_start}, {proof.window_end}], {len(blob)} bytes",
                f"  holder {proof.holder_id.hex()}",
                f"  issuer {proof.issuer_id.hex()}",
            ]
        elif isinstance(proof, HubProof):
            obj = {
                "kind": "hub",
                "holder": proof.holder_id.hex(),
                "window": [proof.window_start, proof.window_end],
                "links": len(proof.manifest),
                "manifest": [node_id.hex() for node_id in proof.manifest],
                "bytes": len(blob),
            }
            lines = [
                f"hub proof, rounds [{proof.window_start}, {proof.window_end}], "
                f"{len(proof.manifest)} links, {len(blob)} bytes",
                f"  holder {proof.holder_id.hex()}",
            ]
        else:
            anchor_round = proof.hops[-1].window_end + 1  # the round of the anchor commitment the chain ends in
            obj = {
                "kind": "chain",
                "holder": proof.holder_id.hex(),
                "anchor": proof.anchor_id.hex(),
                "hops": len(proof.hops),
                "anchor_round": anchor_round,
                "bytes": len(blob),
            }
            lines = [
                f"chain proof, {len(proof.hops)} hops, {len(blob)} bytes",
                f"  holder {proof.holder_id.hex()}",
                f"  anchor {proof.anchor_id.hex()} at round {anchor_round}",
            ]
        _emit(args.format, lines, obj)
        return 0
    if args.ledger:
        try:
            header, rows = read_ledger(args.ledger)
        except LedgerError as exc:
            return _malformed(args.format, "MalformedLedger", str(exc))
        obj = {"header": header, "records": len(rows)}
        _emit(
            args.format,
            [f"{header.get('kind', '?')} ledger: {len(rows)} records", f"  header: {header}"],
            obj,
        )
        return 0
    try:
        bundle = load_trust_bundle(args.trust)
    except LedgerError as exc:
        return _malformed(args.format, "MalformedTrust", str(exc))
    anchors = {
        label: len(bundle.anchors[node_id])
        for label, node_id in sorted(bundle.node_ids.items())
        if node_id in bundle.anchors
    }
    obj = {
        "topology": bundle.topology,
        "seed": bundle.seed,
        "nodes": sorted(bundle.node_ids),
        "anchors": anchors,
    }
    lines = [
        f"trust bundle for {bundle.topology!r} (seed {bundle.seed})",
        f"  nodes: {', '.join(sorted(bundle.node_ids))}",
        "  anchors: " + (", ".join(f"{label} ({rounds} rounds)" for label, rounds in anchors.items()) or "none"),
    ]
    _emit(args.format, lines, obj)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmesh",
        description="Entangled commitment networks: simulate, prove, verify, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and write its ledgers")
    p_sim.add_argument("--config", required=True, help="scenario YAML file")
    p_sim.add_argument("--out", default=None, help="directory for ledgers and the trust bundle")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    _add_format(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_prove = sub.add_parser(
        "prove",
        help="re-run a scenario through the last round the proof reads and emit a proof file",
        description="Re-run a scenario through the last round the proof reads, and one more when a "
        "fork_history fault rewrites that round, then write the proof: the same bytes a run of every round gives.",
    )
    p_prove.add_argument("--config", required=True)
    p_prove.add_argument("--kind", choices=("link", "hub", "chain"), required=True)
    p_prove.add_argument("--holder", required=True, help="holder node label")
    p_prove.add_argument("--issuer", default=None, help="issuer node label (link proofs)")
    p_prove.add_argument("--start", type=int, required=True, help="first holder round in the window")
    p_prove.add_argument("--end", type=int, default=None, help="last holder round (default: start)")
    p_prove.add_argument("--window", type=int, default=1, help="per-hop window length (chain proofs)")
    p_prove.add_argument("--seed", type=int, default=None)
    p_prove.add_argument("--out", required=True, help="proof file to write")
    _add_format(p_prove)
    p_prove.set_defaults(func=cmd_prove)

    p_verify = sub.add_parser("verify", help="check a proof file against a trust bundle")
    p_verify.add_argument("--proof", required=True)
    p_verify.add_argument("--trust", required=True, help="trust.json from a simulate run")
    _add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_inspect = sub.add_parser("inspect", help="describe a proof, ledger, or trust bundle")
    group = p_inspect.add_mutually_exclusive_group(required=True)
    group.add_argument("--proof")
    group.add_argument("--ledger")
    group.add_argument("--trust")
    _add_format(p_inspect)
    p_inspect.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
