"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

They check that the metric registry matches ``BENCHMARK.json``, that the
self-time arithmetic is right on a synthetic span tree, that every workload
passes at a tiny size (untraced and traced, with traced counts repeating
exactly), and that each output check really counts a failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import DEFAULT_SEED, Fingerprints  # noqa: E402
from harness import END_TO_END, PER_LAYER, run_workload  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import self_times  # noqa: E402

SEED = 5


def tiny_workloads(fingerprints: Fingerprints) -> dict:
    return {
        "sim-wide": workloads.SimWide(fingerprints, holders=4, rounds=8, proofs=2),
        "sim-long": workloads.SimLong(fingerprints, arity=2, holders=4, rounds=12, audit_every=5, chains=2),
        "verify-mix": workloads.VerifyMix(fingerprints, partners=3, hops=2, chain_rounds=8),
        "cli-pipeline": workloads.CliPipeline(ROOT / "scenarios", HERE / "out" / "test", fingerprints),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    """Default-seed fingerprints of the tiny configurations."""
    fingerprints = Fingerprints({}, record=True)
    for workload in tiny_workloads(fingerprints).values():
        assert run_workload(workload, DEFAULT_SEED, 0.0, trace=False).correct
    return fingerprints.golden


def test_registry_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(workloads.make_workloads(ROOT, Fingerprints({}))) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    setup_bound = dict((m["name"], m["bound"]) for m in spec["end_to_end"])["setup_s"]
    assert all(m["bound"] <= setup_bound for m in spec["end_to_end"])


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),  # a child of a with its own child c
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
        ("d", 8.0, 12.0, 0),  # overhangs a: only 8..10 is covered in a
        ("e", 20.0, 30.0, -1),
        ("f", 21.0, 25.0, 5),  # f and g overlap: 21..27 is covered once
        ("g", 23.0, 27.0, 5),
    ]
    assert self_times(spans) == pytest.approx(
        {"a": 10 - 3 - 1 - 2, "b": 2 + 1, "c": 1, "d": 4, "e": 10 - 6, "f": 4, "g": 4}
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_workload_passes_untraced_and_traced(name, golden):
    result = run_workload(tiny_workloads(Fingerprints(dict(golden)))[name], SEED, 0.0, trace=False)
    assert result.correct, result.failures
    assert result.failed == 0 and result.attempted > 0
    assert list(result.metrics) == [m[0] for m in END_TO_END]
    assert all(value > 0 for value in result.metrics.values())

    traced = [run_workload(tiny_workloads(Fingerprints(dict(golden)))[name], SEED, 0.0, trace=True) for _ in range(2)]
    for run in traced:
        assert run.correct, run.failures
        assert sorted(run.metrics) == sorted(m[0] for m in PER_LAYER)
    exact = [n for n, unit, _better in PER_LAYER if unit in ("count", "B", "ratio")]
    assert {n: traced[0].metrics[n] for n in exact} == {n: traced[1].metrics[n] for n in exact}


def test_flipped_fingerprint_counts_as_failure(golden):
    wrong = dict(golden)
    key = "sim-wide/centralized-4x8"
    wrong[key] = wrong[key][::-1]
    result = run_workload(tiny_workloads(Fingerprints(wrong))["sim-wide"], SEED, 0.0, trace=False)
    assert not result.correct
    assert result.failed == 1
    assert "differs from golden" in result.failures[0]


def test_accepted_tamper_counts_as_failure(golden, monkeypatch):
    monkeypatch.setattr(workloads, "tamper", lambda blob, seed, key, index: blob)
    result = run_workload(tiny_workloads(Fingerprints(dict(golden)))["verify-mix"], SEED, 0.0, trace=False)
    assert not result.correct
    assert result.failed == 3 * workloads.VerifyMix.tampers * 3  # 3 proofs, 3 cycles
    assert all("accepted" in failure for failure in result.failures)


def test_nonzero_cli_exit_counts_as_failure(golden):
    # The hub scenario has no node "nobody", so prove exits 2.
    scenarios = (("hub.yaml", ("--kind", "link", "--holder", "center", "--issuer", "nobody", "--start", "1")),)
    workload = workloads.CliPipeline(ROOT / "scenarios", HERE / "out" / "test", Fingerprints(dict(golden)), scenarios)
    workload.min_cycles = 1
    result = run_workload(workload, SEED, 0.0, trace=False)
    assert not result.correct
    assert result.failures[0].startswith("prove hub.yaml: exit 2")
    # With its only prove failing, the run also lacks every proof sample.
    assert all(f.startswith("no ") and f.endswith(" samples") for f in result.failures[1:])
    assert result.failed == len(result.failures)
