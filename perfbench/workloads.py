"""The four workloads.

Each workload has ``setup(seed, index, rec)``, run ``setups`` times and
reported as a median, and ``cycle(state, seed, index, rec)``, one unit of
the closed loop.  Cycle 0 of the simulation and CLI workloads runs at
``DEFAULT_SEED`` so every run compares one output with the stored golden;
later cycles run at the workload seed and must repeat each other exactly.
The program only ever receives generated inputs: topologies, round
counts, seeds, faults, proofs and tampered bytes.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import time
from pathlib import Path

# Layer functions are called through their modules so that the tracer's
# rebinding of module attributes also covers the benchmark's own calls.
from entmesh import cli, config, entangle
from entmesh.entangle import EVIDENCE_LAG
from entmesh.simnet import Equivocate, Simulation, WithholdReceipt, centralized, chain, fan, federated
from entmesh.wire import WireError

from checks import DEFAULT_SEED, Fingerprints, files_fingerprint, sim_fingerprint, tamper, unexplained_events, victims_detected


def _trusted(sim, label: str) -> dict:
    return {record.round: record.commitment for record in sim.nodes[label].records}


def _timed_run(sim, rec) -> None:
    """Run ``sim``, recording round periods from public pre-round hooks.

    Each pre hook probes the reference clock before it marks the round
    start, so the probe falls outside the round it precedes; a post hook
    probes once more mid-round.  Probe time weighs zero in reference time."""
    marks: list[float] = []

    def mark(_sim) -> None:
        rec.probe()
        marks.append(time.perf_counter())

    for r in range(sim.rounds):
        sim.at(r, mark, phase="pre")
        sim.at(r, lambda _sim: rec.probe(), phase="post")
    start = time.perf_counter()
    sim.run()
    end = time.perf_counter()
    for a, b in zip(marks, marks[1:] + [end]):
        rec.timed("round_s", a, b)
    rec.rate("node_rounds_per_s", len(sim.topology.labels) * sim.rounds, start, end)
    rec.sim_done(sim)


def _check_sim(sim, rec, fingerprints: Fingerprints, key: str, seed: int, equivocate=None, withhold=None) -> None:
    problem = fingerprints.check(key, seed, sim_fingerprint(sim))
    bad = unexplained_events(sim, equivocate, withhold)
    if problem is None and bad:
        problem = f"{key} seed {seed}: unexplained event {bad[0]}"
    if problem is None and equivocate is not None and not victims_detected(sim, equivocate):
        problem = f"{key} seed {seed}: equivocation by {equivocate.node} not detected within 2 rounds"
    rec.op(problem is None, problem or "")


def _prove_and_check(rec, key: str, seed: int, index: int, build, verify, tampers: int, pipeline: bool = False) -> None:
    """Build and encode one proof, verify it honest, then reject ``tampers``
    tampered copies.  Records prove_s, verify_s, reject_s and proof_bytes,
    and with ``pipeline`` the prove-to-verified time as a pipeline sample."""
    rec.probe()
    t0 = time.perf_counter()
    blob = entangle.encode_proof(build())
    t1 = time.perf_counter()
    try:
        verdict = verify(entangle.decode_proof(blob))
    except Exception as exc:  # any crash on honest input is a failed operation
        verdict = None
        rec.op(False, f"{key}: honest proof raised {exc!r}")
    t2 = time.perf_counter()
    if verdict is not None:
        rec.op(bool(verdict), f"{key}: honest proof rejected: {getattr(verdict, 'reason', verdict)}")
    rec.timed("prove_s", t0, t1)
    rec.timed("verify_s", t1, t2)
    if pipeline:
        rec.timed("pipeline_s", t0, t2)
    rec.add("proof_bytes", len(blob))
    for j in range(tampers):
        bad = tamper(blob, seed, key, index * tampers + j)
        rec.probe()
        t3 = time.perf_counter()
        at_decode = False
        try:
            try:
                proof = entangle.decode_proof(bad)
            except (WireError, ValueError):
                at_decode = True
                accepted = False
            else:
                accepted = bool(verify(proof))
        except Exception as exc:
            rec.op(False, f"{key}: tampered copy {j} raised {exc!r}")
            continue
        rec.timed("reject_s", t3, time.perf_counter())
        rec.reject(at_decode)
        rec.op(not accepted, f"{key}: tampered copy {j} accepted")


class SimWide:
    """Many holders, short history: the hub's tree has ~2n leaves, so the
    issuer round (prove_inclusion per receipt) dominates."""

    name = "sim-wide"
    setups = 9
    min_cycles = 3
    tampers = 4

    def __init__(self, fingerprints: Fingerprints, holders: int = 100, rounds: int = 10, proofs: int = 8, window: int = 4):
        self.holders, self.rounds, self.proofs, self.window = holders, rounds, proofs, window
        self.key = f"{self.name}/centralized-{holders}x{rounds}"
        self.fingerprints = fingerprints

    def setup(self, seed: int, index: int, rec):
        # Set-up is what precedes Simulation.run: topology, key derivation,
        # directory and manifests.
        return Simulation(centralized(self.holders), rounds=self.rounds, seed=seed)

    def cycle(self, state, seed: int, index: int, rec) -> None:
        run_seed = DEFAULT_SEED if index == 0 else seed
        t0 = time.perf_counter()
        sim = Simulation(centralized(self.holders), rounds=self.rounds, seed=run_seed)
        _timed_run(sim, rec)
        _check_sim(sim, rec, self.fingerprints, self.key, run_seed)
        rng = random.Random(f"{self.name}:{run_seed}")
        hub = sim.nodes["hub"]
        trusted = _trusted(sim, "hub")
        last_start = self.rounds - 1 - EVIDENCE_LAG - (self.window - 1)
        for h in rng.sample(range(self.holders), self.proofs):
            holder = sim.nodes[f"h{h}"]
            start = rng.randint(min(2, last_start), last_start)
            window = (start, start + self.window - 1)
            _prove_and_check(
                rec,
                f"link-h{h}",
                run_seed,
                index,
                lambda: entangle.build_link_proof(holder.records, hub.node_id, window, holder.receipt_log),
                lambda proof: entangle.verify_link(proof, trusted, sim.directory),
                self.tampers,
            )
        rec.timed("pipeline_s", t0, time.perf_counter())

    def teardown(self, state) -> None:
        pass


class SimLong:
    """Small trees, long history, two faults: retained_bytes/round_leaves
    and the periodic chain audit dominate; runs forwarding, gossip, fault
    and detection paths.  Its proofs are chain proofs to the root from
    holders the faults do not touch."""

    name = "sim-long"
    setups = 9
    min_cycles = 3
    # A chain proof's reject time spreads evenly from decode to full verify,
    # so its median needs many tampered copies to settle.
    tampers = 24

    def __init__(
        self,
        fingerprints: Fingerprints,
        levels: int = 3,
        arity: int = 3,
        holders: int = 18,
        rounds: int = 60,
        audit_every: int = 10,
        chains: int = 6,
    ):
        self.levels, self.arity, self.holders = levels, arity, holders
        self.rounds, self.audit_every, self.chains = rounds, audit_every, chains
        self.key = f"{self.name}/federated-{levels}x{arity}-{holders}x{rounds}"
        self.fingerprints = fingerprints

    def _simulation(self, seed: int):
        """The run for ``seed`` with its two faults, the holders to prove
        for, and the generator that picks their start rounds."""
        topo = federated(self.levels, self.arity, self.holders)
        bottom = sorted({issuer for holder, issuer in topo.links if topo.roles[holder] == "holder"})
        rng = random.Random(f"{self.name}:{seed}")
        liar, withholder = rng.sample(bottom, 2)
        equivocate = Equivocate(liar, rng.randint(3, 8), (topo.holders_of(liar)[0],))
        w_start = rng.randint(5, 10)
        withhold = WithholdReceipt(withholder, topo.holders_of(withholder)[0], w_start, w_start + 4)
        clean = [h for h, issuer in topo.links if topo.roles[h] == "holder" and issuer not in (liar, withholder)]
        sim = Simulation(topo, rounds=self.rounds, seed=seed, faults=(equivocate, withhold), audit_every=self.audit_every)
        return sim, equivocate, withhold, rng.sample(clean, self.chains), rng

    def setup(self, seed: int, index: int, rec):
        return self._simulation(seed)[0]

    def cycle(self, state, seed: int, index: int, rec) -> None:
        run_seed = DEFAULT_SEED if index == 0 else seed
        t0 = time.perf_counter()
        sim, equivocate, withhold, subjects, rng = self._simulation(run_seed)
        _timed_run(sim, rec)
        _check_sim(sim, rec, self.fingerprints, self.key, run_seed, equivocate, withhold)
        anchor_trust = _trusted(sim, sim.topology.anchors[0])
        records, receipts = sim.records_by_id(), sim.receipts_by_id()
        for label in subjects:
            ids = [sim.nodes[hop].node_id for hop in sim.path_to_anchor(label)]
            start = rng.randint(2, self.rounds - len(ids) - EVIDENCE_LAG - 1)
            _prove_and_check(
                rec,
                f"chain-{label}",
                run_seed,
                index,
                lambda: entangle.build_chain_proof(records, receipts, ids, start, 1),
                lambda proof: entangle.verify_chain(proof, anchor_trust, sim.directory),
                self.tampers,
            )
        rec.timed("pipeline_s", t0, time.perf_counter())

    def teardown(self, state) -> None:
        pass


class VerifyMix:
    """Prover and verifier only: set-up simulates fan and chain networks;
    the loop builds, encodes, decodes and verifies hub, chain and link
    proofs and rejects tampered copies.  No simulation in the loop."""

    name = "verify-mix"
    setups = 5
    min_cycles = 3
    tampers = 2

    def __init__(self, fingerprints: Fingerprints, partners: int = 40, fan_rounds: int = 8, hops: int = 4, chain_rounds: int = 10):
        self.partners, self.fan_rounds, self.hops, self.chain_rounds = partners, fan_rounds, hops, chain_rounds
        self.fingerprints = fingerprints

    def setup(self, seed: int, index: int, rec):
        # The first set-up runs at DEFAULT_SEED against the goldens; the
        # others at the workload seed, which must repeat.
        run_seed = DEFAULT_SEED if index == 0 else seed
        # Round metrics come from the fan(40) run only: mixed with the
        # chain's 5-node rounds, their median would sit between two sizes.
        fan_sim = Simulation(fan(self.partners), rounds=self.fan_rounds, seed=run_seed)
        _timed_run(fan_sim, rec)
        chain_sim = Simulation(chain(self.hops), rounds=self.chain_rounds, seed=run_seed).run()
        for sim in (fan_sim, chain_sim):
            _check_sim(sim, rec, self.fingerprints, f"{self.name}/{sim.topology.name}x{sim.rounds}", run_seed)
        rng = random.Random(f"{self.name}:{seed}")
        center = fan_sim.nodes["center"]
        hub_window = (1, 4)
        hub_trust = {fan_sim.nodes[p].node_id: _trusted(fan_sim, p) for p in fan_sim.topology.anchors}
        issuer = fan_sim.nodes[rng.choice(fan_sim.topology.anchors)]
        issuer_trust = hub_trust[issuer.node_id]
        path = chain_sim.path_to_anchor("h0")
        ids = [chain_sim.nodes[label].node_id for label in path]
        chain_start = rng.randint(2, 3)
        chain_trust = _trusted(chain_sim, path[-1])
        records, receipts = chain_sim.records_by_id(), chain_sim.receipts_by_id()
        return [
            (
                "hub",
                lambda: entangle.build_hub_proof(center.records, hub_window, center.receipt_log),
                lambda proof: entangle.verify_hub(proof, hub_trust, fan_sim.directory),
            ),
            (
                "chain",
                lambda: entangle.build_chain_proof(records, receipts, ids, chain_start, 2),
                lambda proof: entangle.verify_chain(proof, chain_trust, chain_sim.directory),
            ),
            (
                "link",
                lambda: entangle.build_link_proof(center.records, issuer.node_id, hub_window, center.receipt_log),
                lambda proof: entangle.verify_link(proof, issuer_trust, fan_sim.directory),
            ),
        ]

    def cycle(self, jobs, seed: int, index: int, rec) -> None:
        for key, build, verify in jobs:
            _prove_and_check(rec, key, seed, index, build, verify, self.tampers, pipeline=True)

    def teardown(self, state) -> None:
        pass


# (scenario file, prove arguments)
CLI_SCENARIOS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("hub.yaml", ("--kind", "hub", "--holder", "center", "--start", "1", "--end", "4")),
    ("chain.yaml", ("--kind", "chain", "--holder", "h0", "--start", "1", "--window", "2")),
    ("identity.yaml", ("--kind", "link", "--holder", "h0", "--issuer", "hub", "--start", "1", "--end", "4")),
)
LEDGER_FILES = ("commitments.jsonl", "metrics.jsonl", "events.jsonl", "trust.json")


class _SimProbe:
    """Attaches round timing to the simulations the CLI builds, by wrapping
    the ``make_simulation`` binding the CLI module looks up."""

    def __init__(self, rec):
        self.rec = rec

    @contextlib.contextmanager
    def attached(self):
        original = cli.make_simulation
        rec = self.rec

        def make_simulation(*args, **kwargs):
            sim = original(*args, **kwargs)
            run = sim.run

            def timed_run():
                sim.run = run
                _timed_run(sim, rec)
                bad = unexplained_events(sim)
                rec.op(not bad, f"{sim.topology.name}: unexplained event {bad[:1]}")
                return sim

            sim.run = timed_run
            return sim

        cli.make_simulation = make_simulation
        try:
            yield
        finally:
            cli.make_simulation = original


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


class CliPipeline:
    """``entmesh simulate --out -> prove -> verify`` in-process on three
    bundled scenarios: the only workload that runs config, ledger and
    identity."""

    name = "cli-pipeline"
    setups = 5
    min_cycles = 3
    tampers = 6

    def __init__(self, scenario_dir: Path, work_root: Path, fingerprints: Fingerprints, scenarios=CLI_SCENARIOS):
        self.scenario_dir, self.work_root, self.scenarios = scenario_dir, work_root, scenarios
        self.fingerprints = fingerprints

    def setup(self, seed: int, index: int, rec):
        # Set-up: validate the scenario files and make a clean work area.
        work = self.work_root / "cli-work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for scenario, _args in self.scenarios:
            config.load_config(self.scenario_dir / scenario)
        return work

    def cycle(self, work: Path, seed: int, index: int, rec) -> None:
        run_seed = DEFAULT_SEED if index == 0 else seed
        probe = _SimProbe(rec)
        for scenario, prove_args in self.scenarios:
            scenario_path = self.scenario_dir / scenario
            out = work / scenario.split(".")[0]
            proof_path = out / "window.proof"
            shutil.rmtree(out, ignore_errors=True)
            rec.probe()
            with probe.attached():
                t0 = time.perf_counter()
                code, text = _cli(["simulate", "--config", scenario_path, "--out", out, "--seed", run_seed])
                t1 = time.perf_counter()
                if not rec.op(code == 0, f"simulate {scenario}: exit {code}: {text[-200:]}"):
                    continue
                code, text = _cli(["prove", "--config", scenario_path, *prove_args, "--seed", run_seed, "--out", proof_path])
                t2 = time.perf_counter()
                if not rec.op(code == 0, f"prove {scenario}: exit {code}: {text[-200:]}"):
                    continue
            code, text = _cli(["verify", "--proof", proof_path, "--trust", out / "trust.json"])
            t3 = time.perf_counter()
            rec.op(code == 0 and "OK:" in text, f"verify {scenario}: exit {code}: {text[-200:]}")
            problem = self.fingerprints.check(
                f"{CliPipeline.name}/{scenario}", run_seed, files_fingerprint(out / f for f in LEDGER_FILES)
            )
            rec.op(problem is None, problem or "")
            rec.timed("prove_s", t1, t2)
            rec.timed("verify_s", t2, t3)
            rec.timed("pipeline_s", t0, t3)
            blob = proof_path.read_bytes()
            rec.add("proof_bytes", len(blob))
            bad_path = out / "tampered.proof"
            for j in range(self.tampers):
                bad_path.write_bytes(tamper(blob, seed, scenario, index * self.tampers + j))
                rec.probe()
                t4 = time.perf_counter()
                code, text = _cli(["verify", "--proof", bad_path, "--trust", out / "trust.json"])
                rec.timed("reject_s", t4, time.perf_counter())
                rec.reject("MalformedProof" in text)
                rec.op(code == 1 and "FAIL" in text, f"tampered {scenario} copy {j}: exit {code}: {text[-200:]}")

    def teardown(self, work: Path) -> None:
        shutil.rmtree(work, ignore_errors=True)


def make_workloads(root: Path, fingerprints: Fingerprints) -> dict:
    """The benchmark's workloads at their measured sizes."""
    return {
        "sim-wide": SimWide(fingerprints),
        "sim-long": SimLong(fingerprints),
        "verify-mix": VerifyMix(fingerprints),
        "cli-pipeline": CliPipeline(root / "scenarios", root / "perfbench" / "out", fingerprints),
    }
