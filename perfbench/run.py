"""entmesh benchmark: one workload, one closed-loop client, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload sim-wide --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric from
a traced run.  Lines before it give provenance, sample counts and, for a
traced run, the largest self-time shares.  The full result, with
provenance, also goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sim-wide", "sim-long", "verify-mix", "cli-pipeline")


def _import_entmesh():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "entmesh" / "__init__.py").is_file():
        raise SystemExit(f"error: no entmesh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entmesh

    if Path(entmesh.__file__).resolve().parent != (SRC / "entmesh").resolve():
        raise SystemExit(f"error: imported entmesh from {entmesh.__file__}, not from {SRC}")
    return entmesh


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import cryptography

    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_entmesh()
    prov = provenance(args.seed)
    sys.path.insert(0, str(HERE))
    from checks import Fingerprints, load_golden
    from harness import run_workload
    from workloads import make_workloads

    workload = make_workloads(ROOT, Fingerprints(load_golden()))[args.workload]
    out_dir = HERE / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = out_dir / f"{stem}.spans.tsv.gz" if args.trace else None
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), spans_path)

    print(f"workload {args.workload}: provenance {json.dumps(prov, sort_keys=True)}")
    print(f"samples: {json.dumps(result.sample_counts, sort_keys=True)}")
    for failure in result.failures:
        print(f"FAILED: {failure}")
    for name, share in result.shares[:12]:
        print(f"self-time share {name}: {share:.3f}")
    metrics = {name: {"value": value, "unit": result.units[name]} for name, value in result.metrics.items()}
    summary = {"correct": result.correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}
    out_dir.mkdir(parents=True, exist_ok=True)
    record = dict(summary, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  provenance=prov, samples=result.sample_counts, failures=result.failures,
                  shares=result.shares, wall_clock_metrics=result.wall_metrics)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
