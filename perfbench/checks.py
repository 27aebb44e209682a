"""Output checks behind the benchmark's failed-operation count.

* Simulation fingerprints: a digest over every commitment, every metrics
  row and every event.  The fingerprint of each workload configuration at
  ``DEFAULT_SEED`` is stored in ``golden.json``; repeats on any seed must
  agree with each other.  Proof bytes are deliberately not stored, so the
  proof encoding may change without touching the goldens.
* Fault accounting: every audit, rejection or missing-receipt event must
  be explained by an injected fault, and an equivocation's victim must
  detect it within two rounds.
* Tampering: seed-drawn single-bit flips and multi-byte mutations of an
  honest proof, which the verifier must reject.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Optional

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
_PHI = 0.6180339887498949  # golden-ratio step: tamper positions cover a proof evenly


def load_golden(path: Path = GOLDEN_PATH) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))


def sim_fingerprint(sim) -> str:
    """Digest of a finished run's commitments, metrics rows and events."""
    h = hashlib.sha256()
    for label in sim.topology.labels:
        for record in sim.nodes[label].records:
            h.update(record.commitment.to_bytes())
    h.update(json.dumps(sim.metrics_rows(), sort_keys=True).encode())
    h.update(json.dumps(sim.events, sort_keys=True).encode())
    return h.hexdigest()


def files_fingerprint(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Fingerprints:
    """Checks one fingerprint per (config key, seed) against the golden or
    against the first fingerprint seen for that key and seed.

    With ``record`` the default-seed fingerprints are stored into
    ``golden`` instead of compared; ``record_golden.py`` uses this.
    """

    def __init__(self, golden: dict[str, str], record: bool = False):
        self.golden = golden
        self.record = record
        self.first: dict[tuple[str, int], str] = {}

    def check(self, key: str, seed: int, fingerprint: str) -> Optional[str]:
        """None when the fingerprint is right, else the reason it is not."""
        if seed == DEFAULT_SEED:
            if self.record:
                self.golden.setdefault(key, fingerprint)
            want = self.golden.get(key)
            if want is None:
                return f"{key}: no golden fingerprint stored"
            if fingerprint != want:
                return f"{key}: fingerprint {fingerprint[:12]} differs from golden {want[:12]}"
        prior = self.first.setdefault((key, seed), fingerprint)
        if prior != fingerprint:
            return f"{key} seed {seed}: repeat differs from the first run"
        return None


# Scheduled identity operations log these; they are not faults.
IDENTITY_EVENTS = frozenset({"CredentialIssued", "CredentialRevoked", "KeyRecovered"})


def unexplained_events(sim, equivocate=None, withhold=None) -> list[dict]:
    """Events that no injected fault accounts for."""
    bad = []
    for event in sim.events:
        kind = event["type"]
        if kind in IDENTITY_EVENTS:
            ok = True
        elif withhold is not None and kind == "ReceiptWithheld":
            ok = (event["issuer"], event["holder"]) == (withhold.node, withhold.victim)
        elif withhold is not None and kind == "ReceiptMissing":
            ok = (event["issuer"], event["holder"]) == (withhold.node, withhold.victim)
        elif equivocate is not None and kind == "EquivocationStarted":
            ok = event["node"] == equivocate.node
        elif equivocate is not None and kind == "EquivocationDetected":
            ok = event["offender"] == equivocate.node
        else:
            ok = False
        if not ok:
            bad.append(event)
    return bad


def victims_detected(sim, equivocate) -> bool:
    """Each fork target sees the first forked round within two rounds."""
    for victim in equivocate.fork_targets:
        hits = [
            e
            for e in sim.detected(equivocate.node)
            if e["observer"] == victim
            and e["offender_round"] == equivocate.start_round
            and e["detected_round"] - e["offender_round"] <= 2
        ]
        if not hits:
            return False
    return True


def tamper(blob: bytes, seed: int, proof_key: str, index: int) -> bytes:
    """The ``index``-th tampered copy of ``blob`` for this seed.

    Even indexes flip one bit, odd ones XOR 2..16 consecutive bytes with
    non-zero values.  Positions follow a golden-ratio sequence from a
    seed-drawn offset, so over a run they cover the proof evenly and the
    reject-time distribution does not depend on a few lucky draws.
    """
    offset = random.Random(f"{seed}:{proof_key}").random()
    rng = random.Random(f"{seed}:{proof_key}:{index}")
    data = bytearray(blob)
    pos = int(((offset + index * _PHI) % 1.0) * len(data))
    if index % 2 == 0:
        data[pos] ^= 1 << rng.randrange(8)
    else:
        for i in range(pos, min(len(data), pos + rng.randint(2, 16))):
            data[i] ^= rng.randrange(1, 256)
    return bytes(data)
