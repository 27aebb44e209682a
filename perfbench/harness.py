"""Metric registry, sample recording and the closed-loop runner.

One client, one thread: each operation starts when the previous one has
finished.  A workload is run as set-up (repeated, reported as a median)
followed by whole cycles until ``seconds`` have passed.  In a traced run
each cycle runs untraced and then traced, so the tracing overhead is the
traced cycle time minus the untraced one, measured on the same work.
"""

from __future__ import annotations

import collections
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from refclock import RefClock
from tracing import Tracer, call_counts, self_times

# (name, unit, better, bound).  ``bound`` is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("node_rounds_per_s", "1/s", "higher", 0.15),
    ("round_s_p50", "s", "lower", 0.15),
    ("round_s_p90", "s", "lower", 0.2),
    ("prove_s_p50", "s", "lower", 0.15),
    ("verify_s_p50", "s", "lower", 0.15),
    ("verify_s_p90", "s", "lower", 0.2),
    ("reject_s_p50", "s", "lower", 0.2),
    ("proof_bytes", "B", "lower", 0.05),
    ("pipeline_s_p50", "s", "lower", 0.15),
    ("pipeline_s_p90", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ops_ratio", "ratio", "higher", 0.01),
)

# Per-layer metrics as (name, unit, better).  ``<span>.calls`` and
# ``<span>.self_s`` read the span of that name; the other names are computed
# from cycle counters.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("hashtree.prove_inclusion.calls", "count", "lower"),
    ("hashtree.prove_inclusion.self_s", "s", "lower"),
    ("hashtree.root.self_s", "s", "lower"),
    ("hashtree.verify_inclusion.calls", "count", "lower"),
    ("hashtree.verify_inclusion.self_s", "s", "lower"),
    ("hashtree.node_hash.calls", "count", "lower"),
    ("hashtree.leaf_hash.calls", "count", "lower"),
    ("keys.sign.calls", "count", "lower"),
    ("keys.sign.self_s", "s", "lower"),
    ("keys.verify.calls", "count", "lower"),
    ("keys.verify.self_s", "s", "lower"),
    ("keys.verify.distinct_ratio", "ratio", "higher"),
    ("sexpr.encode_tree.calls", "count", "lower"),
    ("sexpr.encode_tree.self_s", "s", "lower"),
    ("wire.encode_inclusion_proof.calls", "count", "lower"),
    ("wire.read_inclusion_proof.self_s", "s", "lower"),
    ("node.build_round.self_s", "s", "lower"),
    ("node.round_leaves.calls", "count", "lower"),
    ("node.round_leaves.self_s", "s", "lower"),
    ("node.issue_receipt.self_s", "s", "lower"),
    ("node.verify_receipt.self_s", "s", "lower"),
    ("node.verify_chain_entries.calls", "count", "lower"),
    ("node.verify_chain_entries.self_s", "s", "lower"),
    ("node.Receipt.to_bytes.calls", "count", "lower"),
    ("entangle.build_hub_proof.self_s", "s", "lower"),
    ("entangle.build_chain_proof.self_s", "s", "lower"),
    ("entangle.encode_proof.self_s", "s", "lower"),
    ("entangle.decode_proof.self_s", "s", "lower"),
    ("entangle.verify_link.calls", "count", "lower"),
    ("entangle.verify_link.self_s", "s", "lower"),
    ("entangle.verify_hub.self_s", "s", "lower"),
    ("entangle.verify_chain.self_s", "s", "lower"),
    ("entangle.reject_at_decode_ratio", "ratio", "higher"),
    ("simnet.run.self_s", "s", "lower"),
    ("simnet.retained_bytes.calls", "count", "lower"),
    ("simnet.retained_bytes.self_s", "s", "lower"),
    ("simnet.topology.calls", "count", "lower"),
    ("simnet.topology.self_s", "s", "lower"),
    ("simnet.bytes_sent", "B", "lower"),
    ("simnet.events", "count", "lower"),
    ("identity.calls", "count", "lower"),
    ("identity.self_s", "s", "lower"),
    ("ledger.write_ledger.self_s", "s", "lower"),
    ("ledger.write_trust_bundle.self_s", "s", "lower"),
    ("ledger.load_trust_bundle.self_s", "s", "lower"),
    ("config.load_config.self_s", "s", "lower"),
    ("config.make_simulation.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.cycle_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Recorder:
    """Timed intervals and values for the end-to-end metrics, the operation
    tally, and the counters of the cycle in progress.

    Times are kept as ``perf_counter`` intervals and converted once the run
    is over, when the reference clock has all its probes.
    """

    clock: RefClock
    intervals: dict = field(default_factory=lambda: collections.defaultdict(list))
    values: dict = field(default_factory=lambda: collections.defaultdict(list))
    rates: dict = field(default_factory=lambda: collections.defaultdict(list))
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    cycle: collections.Counter = field(default_factory=collections.Counter)

    def probe(self) -> None:
        self.clock.probe()

    def timed(self, metric: str, start: float, end: float) -> None:
        self.intervals[metric].append((start, end))

    def add(self, metric: str, value: float) -> None:
        self.values[metric].append(value)

    def rate(self, metric: str, work: float, start: float, end: float) -> None:
        self.rates[metric].append((work, start, end))

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def sim_done(self, sim) -> None:
        self.cycle["simnet.bytes_sent"] += sim.total_bytes_sent()
        self.cycle["simnet.events"] += len(sim.events)

    def reject(self, at_decode: bool) -> None:
        self.cycle["rejects"] += 1
        self.cycle["rejects_at_decode"] += int(at_decode)

    def sample_counts(self) -> dict[str, int]:
        counts = {name: len(v) for group in (self.intervals, self.values, self.rates) for name, v in group.items()}
        counts["probes"] = len(self.clock.probes)
        return counts


def median(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end_metrics(rec: Recorder, seconds: Callable[[float, float], float]) -> dict[str, float]:
    """The end-to-end metrics, with ``seconds(start, end)`` measuring time.
    A metric with no samples reads 0; see ``missing_samples``."""
    s = {name: [seconds(a, b) for a, b in spans] for name, spans in rec.intervals.items()}

    def stat(fn, name: str) -> float:
        return fn(s[name]) if s.get(name) else 0.0

    # Summed over the run's simulations, so a mix of network sizes weighs
    # each by its run time.
    node_rounds = rec.rates["node_rounds_per_s"]
    sim_seconds = sum(seconds(a, b) for _w, a, b in node_rounds)
    proofs = rec.values["proof_bytes"]
    return {
        "setup_s": stat(median, "setup_s"),
        "node_rounds_per_s": sum(w for w, _a, _b in node_rounds) / sim_seconds if node_rounds else 0.0,
        "round_s_p50": stat(median, "round_s"),
        "round_s_p90": stat(p90, "round_s"),
        "prove_s_p50": stat(median, "prove_s"),
        "verify_s_p50": stat(median, "verify_s"),
        "verify_s_p90": stat(p90, "verify_s"),
        "reject_s_p50": stat(median, "reject_s"),
        "proof_bytes": sum(proofs) / len(proofs) if proofs else 0.0,
        "pipeline_s_p50": stat(median, "pipeline_s"),
        "pipeline_s_p90": stat(p90, "pipeline_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": 1.0 - rec.failed / max(rec.attempted, 1),
    }


def missing_samples(rec: Recorder) -> list[str]:
    """Sample sets a complete run must have; empty only when every
    operation behind them failed."""
    needed = ("setup_s", "round_s", "prove_s", "verify_s", "reject_s", "pipeline_s")
    missing = [name for name in needed if not rec.intervals.get(name)]
    missing += [name for name, group in (("node_rounds_per_s", rec.rates), ("proof_bytes", rec.values)) if not group.get(name)]
    return missing


@dataclass
class TracedCycle:
    wall_s: float
    selfs: dict
    calls: dict
    hash_counts: dict
    verify_distinct: int
    counters: dict


def layer_metrics(traced: list[TracedCycle], overheads: list[float]) -> dict[str, float]:
    """Per-layer values: counts from the first traced cycle (they repeat
    exactly for a given seed), self times as the median over traced cycles,
    and the overhead as the median traced-minus-untraced time of a cycle."""
    first = traced[0]
    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            out[name] = median([c.selfs.get(span, 0.0) for c in traced])
        elif name.endswith(".calls"):
            span = name[: -len(".calls")]
            out[name] = first.calls.get(span, first.hash_counts.get(span, 0))
    verifies = first.calls.get("keys.verify", 0)
    out["keys.verify.distinct_ratio"] = first.verify_distinct / verifies if verifies else 0.0
    rejects = first.counters.get("rejects", 0)
    out["entangle.reject_at_decode_ratio"] = first.counters.get("rejects_at_decode", 0) / rejects if rejects else 0.0
    out["simnet.bytes_sent"] = first.counters.get("simnet.bytes_sent", 0)
    out["simnet.events"] = first.counters.get("simnet.events", 0)
    out["trace.cycle_s"] = median([c.wall_s for c in traced])
    out["trace.overhead_s"] = median(overheads)
    return out


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    wall_metrics: dict
    units: dict
    failures: list
    sample_counts: dict
    shares: list


def _run_cycle(workload, state, seed: int, index: int, rec: Recorder, tracer: Optional[Tracer]) -> float:
    rec.cycle.clear()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        workload.cycle(state, seed, index, rec)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return wall


def run_workload(workload, seed: int, seconds: float, trace: bool, spans_path: Optional[Path] = None) -> RunResult:
    """Set up, then run whole cycles until ``seconds`` have passed.

    Untraced, cycles 0, 1, 2, ... run back to back.  Traced, cycle 0 runs
    untraced and every later cycle index runs twice, untraced then traced,
    so the two differ only by the tracing.
    """
    # Probes are only needed for end-to-end times; a traced run leaves
    # them out so they add nothing to any span's self time.
    rec = Recorder(RefClock(enabled=not trace))
    state = None
    for i in range(workload.setups):
        rec.probe()
        t0 = time.perf_counter()
        state = workload.setup(seed, i, rec)
        rec.timed("setup_s", t0, time.perf_counter())
    traced: list[TracedCycle] = []
    overheads: list[float] = []
    start = time.perf_counter()
    cycle = 0
    min_cycles = 2 if trace else workload.min_cycles
    while cycle < min_cycles or time.perf_counter() - start < seconds:
        wall = _run_cycle(workload, state, seed, cycle, rec, None)
        if trace and cycle > 0:
            tracer = Tracer()
            traced_wall = _run_cycle(workload, state, seed, cycle, rec, tracer)
            overheads.append(traced_wall - wall)
            traced.append(
                TracedCycle(
                    wall_s=traced_wall,
                    selfs=self_times(tracer.spans),
                    calls=call_counts(tracer.spans),
                    hash_counts=dict(tracer.counts),
                    verify_distinct=len(tracer.verify_triples),
                    counters=dict(rec.cycle),
                )
            )
            if spans_path is not None and len(traced) == 1:
                tracer.write_spans(spans_path)
        cycle += 1
    rec.probe()
    workload.teardown(state)
    if trace:
        metrics = layer_metrics(traced, overheads)
        units = {name: unit for name, unit, _better in PER_LAYER}
        total = metrics["trace.cycle_s"]
        shares = sorted(
            ((name[: -len(".self_s")], value / total) for name, value in metrics.items() if name.endswith(".self_s")),
            key=lambda item: -item[1],
        )
        wall_metrics = {}
    else:
        for name in missing_samples(rec):
            rec.op(False, f"no {name} samples")
        rec.clock.freeze()
        metrics = end_to_end_metrics(rec, rec.clock.seconds)
        wall_metrics = end_to_end_metrics(rec, lambda a, b: b - a)
        units = {name: unit for name, unit, _better, _bound in END_TO_END}
        shares = []
    counts = rec.sample_counts()
    counts["cycles"] = cycle
    return RunResult(
        correct=rec.failed == 0,
        attempted=rec.attempted,
        failed=rec.failed,
        metrics=metrics,
        wall_metrics=wall_metrics,
        units=units,
        failures=rec.failures,
        sample_counts=counts,
        shares=shares,
    )
