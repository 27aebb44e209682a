"""Record the default-seed fingerprints into ``golden.json``.

Run from the repository root, only when a change is meant to alter the
simulation's commitments, metrics or events:

    python3 perfbench/record_golden.py

The workloads run at ``DEFAULT_SEED`` with the fingerprint checker in
recording mode, so the stored values are exactly what the checks compare.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, _import_entmesh


def main() -> int:
    _import_entmesh()
    from checks import DEFAULT_SEED, GOLDEN_PATH, Fingerprints
    from harness import run_workload
    from workloads import make_workloads

    fingerprints = Fingerprints({}, record=True)
    for name, workload in make_workloads(ROOT, fingerprints).items():
        result = run_workload(workload, DEFAULT_SEED, 0.0, trace=False)
        if not result.correct:
            print(f"{name}: checks failed while recording: {result.failures}", file=sys.stderr)
            return 1
    GOLDEN_PATH.write_text(json.dumps(fingerprints.golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(fingerprints.golden)} fingerprints to {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
