"""One-shot cost-law report: how run and verify cost scale.

Run from the repository root (about a minute on a 2-core machine):

    python3 perfbench/costlaw.py

The paper's cost laws say per node-round cost stays flat as holders grow,
per-round cost stays flat as history grows, and verify cost grows
linearly in links x window.  This report measures each once:

* ms per node-round of ``Simulation(centralized(n), 10 rounds).run()``
  for n in {10, 50, 200, 400};
* ms per node-round of ``centralized(10)`` for 10 and 80 rounds;
* for a fan(40) hub proof over a 4-round window: encoded bytes and the
  signature checks (``keys.verify.calls``) one verification makes.

Times are in reference milliseconds (see ``refclock.py``), each with the
raw wall-clock figure beside it.  The report prints one JSON object and
writes it to ``perfbench/out/costlaw.json``.
It is not a benchmark workload and is not repeated.
"""

from __future__ import annotations

import json
import sys

from run import HERE, _import_entmesh, provenance

HOLDERS = (10, 50, 200, 400)
ROUNDS = (10, 80)
SEED = 0


def _ms_per_node_round(topology, rounds: int) -> dict:
    from entmesh.simnet import Simulation

    from harness import Recorder
    from refclock import RefClock
    from workloads import _timed_run

    rec = Recorder(RefClock())
    _timed_run(Simulation(topology, rounds=rounds, seed=SEED), rec)
    rec.probe()
    rec.clock.freeze()
    [(work, start, end)] = rec.rates["node_rounds_per_s"]
    return {
        "reference_ms": rec.clock.seconds(start, end) * 1000 / work,
        "wall_ms": (end - start) * 1000 / work,
    }


def main() -> int:
    _import_entmesh()
    from entmesh import entangle
    from entmesh.simnet import Simulation, centralized, fan

    from tracing import Tracer, call_counts

    report = {"provenance": provenance(SEED)}
    report["holders_sweep_ms_per_node_round"] = {
        str(n): _ms_per_node_round(centralized(n), 10) for n in HOLDERS
    }
    report["rounds_sweep_ms_per_node_round"] = {
        str(r): _ms_per_node_round(centralized(10), r) for r in ROUNDS
    }
    sim = Simulation(fan(40), rounds=8, seed=SEED).run()
    center = sim.nodes["center"]
    blob = entangle.encode_proof(entangle.build_hub_proof(center.records, (1, 4), center.receipt_log))
    trusted = {
        sim.nodes[p].node_id: {r.round: r.commitment for r in sim.nodes[p].records} for p in sim.topology.anchors
    }
    tracer = Tracer()
    tracer.install()
    try:
        verdict = entangle.verify_hub(entangle.decode_proof(blob), trusted, sim.directory)
    finally:
        tracer.uninstall()
    if not verdict:
        print(f"fan(40) hub proof failed to verify: {verdict.reason}", file=sys.stderr)
        return 1
    verifies = call_counts(tracer.spans).get("keys.verify", 0)
    report["fan40_hub"] = {
        "window": [1, 4],
        "proof_bytes": len(blob),
        "keys.verify.calls": verifies,
        "keys.verify.distinct_ratio": len(tracer.verify_triples) / verifies,
    }
    out = HERE / "out" / "costlaw.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
