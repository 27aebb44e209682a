"""The cost laws, counted: a node's work per round stays flat as holders and
rounds grow, and only hashing and bytes grow, as log2 of the holder count.

Wall-clock time is too noisy for a tier-1 check, so this module counts work
and fits the counts against input size, as Goldsmith et al. do (ESEC/FSE
2007).  Per node-round, leaving out round 0, which has no receipts, it
counts Ed25519 signs (``KeyPair.sign``), the signature checks nodes ask
for (``_CheckedOnce.verify_signature``, the run's memo) and the Ed25519
verifies those make (``Ed25519Scheme.verify``), inclusion folds
(``fold_root``, in ``hashtree`` and in ``entangle``), SHA-256 calls
(``hashtree._sha256``), bytes sent and, in the rounds sweeps, records
whose retained bytes are read (``NodeRecord.retained_bytes``).
The counts are deterministic.  Ed25519 is stood in for by a keyed SHA-512
that refuses what Ed25519 refuses on these runs (any signature its key did
not make), so every check has its real outcome at a fraction of the time,
and signatures keep their 64 bytes.  Every signature these honest runs
check is one the run made, which the memo learns when it is signed, so
they make no Ed25519 verify at all.  At seed 0, as (signs, checks, folds,
SHA-256 calls, bytes sent):

* ``centralized(n)`` x 10 rounds, for n = 10 / 50 / 200:
  (1.91, 3.73, 3.71, 36.1, 954) / (1.98, 3.94, 3.85, 40.9, 1,160) /
  (2.00, 3.99, 3.88, 45.0, 1,309);
* ``centralized(10)`` at 10 / 80 rounds: (1.91, 3.73, 3.71, 36.1, 954) /
  (1.91, 3.73, 3.81, 36.7, 967);
* ``federated(3, 3, 18)`` with ``audit_every=10`` at 30 / 120 rounds:
  (1.97, 5.60, 6.29, 45.4, 1,414) / (1.97, 5.71, 6.63, 47.0, 1,443).
  While each chain audit walked the node's whole history, its folds read
  6.69 / 11.12 (+66%) and its SHA-256 calls 46.1 / 65.6.

While the memo learned only the checks that passed, the Ed25519 verifies
read about one per sign (1.92 / 1.98 / 2.00 in the holder sweep), and the
law bounded them in place of the checks.

Records read per node-round: 1.20 / 1.18 for ``centralized(10)`` and
1.07 / 1.07 for ``federated(3, 3, 18)``.  While each metrics row summed
every record of its node, they read 6 / 41 and 16 / 61.

The bounds, each with room over the spreads above, the widest of which
is 7%, the checks' across the holder sweep:

* ``FLAT``: across the holder sweep, the largest of signs, checks and
  folds per node-round is at most 10% above the smallest; across a rounds
  sweep, so is every count;
* ``FLAT`` again for the log law: SHA-256 calls and bytes per node-round at
  200 holders are at most 10% above a + b·log2(200), the line through their
  figures at 10 and 50 holders;
* Ed25519 verifies are exactly 0 in every run.

A hub proof's bytes obey the law in window rounds: each round added to a
``fan(n)`` hub's window adds the same bytes, 1,212 for n = 5 and 6,444
for n = 40 (over [1, w], w = 1 to 4, at seed 0).  Of those, 144·n are
receipt paths, each partner's 4-leaf tree giving a 76 B submission-leaf
path (index, count, two siblings) and a 68 B first-leaf path (count, two
siblings); the rest is the holder chain commitment and link, the round's
signature, manifest proof and evidence proof.  Each issuer's chain
enters the proof once, so it writes n prev digests whatever w is.  While
every window round wrote them, each round added 32·n bytes more.
"""

import functools
import hashlib
import math
from collections import Counter

import pytest

from entmesh import entangle, hashtree
from entmesh.keys import Ed25519Scheme, KeyPair
from entmesh.node import NodeRecord
from entmesh.wire import encode_inclusion_proof
from entmesh.entangle import build_hub_proof, encode_proof
from entmesh.simnet import Simulation, centralized, fan, federated
from entmesh.simnet.engine import _CheckedOnce

FLAT = 1.10
HOLDERS = (10, 50, 200)
HOLDER_RUNS = [("centralized", n, 10, 0) for n in HOLDERS]
ROUND_SWEEPS = {
    "centralized-10": [("centralized", 10, rounds, 0) for rounds in (10, 80)],
    "federated-3x3-18-audited": [("federated", 18, rounds, 10) for rounds in (30, 120)],
}
TOPOLOGIES = {"centralized": centralized, "federated": lambda holders: federated(3, 3, holders)}


def stand_in_sign(keypair, message):
    return hashlib.sha512(keypair.verify_key + message).digest()


def stand_in_verify(scheme, verify_key, message, signature):
    return signature == hashlib.sha512(verify_key + message).digest()


# (owner, attribute, count, function): the counted functions, each wrapped where it is looked up.
COUNTED = (
    (KeyPair, "sign", "signs", stand_in_sign),
    (Ed25519Scheme, "verify", "verifies", stand_in_verify),
    (_CheckedOnce, "verify_signature", "checks", _CheckedOnce.verify_signature),
    (hashtree, "fold_root", "folds", hashtree.fold_root),
    (entangle, "fold_root", "folds", hashtree.fold_root),
    (hashtree, "_sha256", "sha256", hashtree._sha256),
)
PER_ROUND = ("signs", "checks", "folds")
GROWING = ("sha256", "bytes")
# Records whose retained bytes are read: one per record built and two per anchor
# record pruned, so 1 + 2 / nodes per node-round with one pruned anchor: flat in
# rounds, not in holders.
RECORDS = ("records",)


@functools.cache
def per_node_round(topology: str, holders: int, rounds: int, audit_every: int) -> dict[str, float]:
    """Counts per node-round of a seed-0 run, over rounds 1 to ``rounds - 1``."""
    counts = Counter()
    live = []  # holds one item from round 1 on

    def counted(original, count):
        def wrapper(*args, **kwargs):
            if live:
                counts[count] += 1
            return original(*args, **kwargs)

        return wrapper

    def start(sim):
        live.append(True)
        counts["bytes"] -= sim.total_bytes_sent()

    # NodeRecord sets retained_bytes with object.__setattr__, which this property's setter takes.
    def retained(record):
        if live:
            counts["records"] += 1
        return vars(record)["retained_bytes"]

    def retain(record, value):
        vars(record)["retained_bytes"] = value

    sim = Simulation(TOPOLOGIES[topology](holders), rounds=rounds, seed=0, audit_every=audit_every)
    sim.at(1, start)
    with pytest.MonkeyPatch.context() as patch:
        for owner, name, count, function in COUNTED:
            patch.setattr(owner, name, counted(function, count))
        patch.setattr(NodeRecord, "retained_bytes", property(retained, retain), raising=False)
        sim.run()
    assert sim.events == []  # an honest run: every check passed, under the stand-in as under Ed25519
    counts["bytes"] += sim.total_bytes_sent()
    node_rounds = len(sim.topology.labels) * (rounds - 1)
    return {count: counts[count] / node_rounds for count in PER_ROUND + GROWING + RECORDS + ("verifies",)}


def spread(runs, count):
    values = [per_node_round(*run)[count] for run in runs]
    return max(values) / min(values)


@pytest.mark.parametrize("count", PER_ROUND)
def test_work_per_node_round_is_flat_in_holders(count):
    assert spread(HOLDER_RUNS, count) <= FLAT, [per_node_round(*run)[count] for run in HOLDER_RUNS]


@pytest.mark.parametrize("run", HOLDER_RUNS + [run for runs in ROUND_SWEEPS.values() for run in runs], ids=str)
def test_an_honest_run_makes_no_ed25519_verify(run):
    assert per_node_round(*run)["verifies"] == 0


@pytest.mark.parametrize("count", GROWING)
def test_hashing_and_bytes_grow_as_log_holders(count):
    small, middle, large = (per_node_round(*run)[count] for run in HOLDER_RUNS)
    slope = (middle - small) / math.log2(HOLDERS[1] / HOLDERS[0])
    line = middle + slope * math.log2(HOLDERS[2] / HOLDERS[1])
    assert large <= FLAT * line, (small, middle, large, line)


@pytest.mark.parametrize("sweep", sorted(ROUND_SWEEPS))
@pytest.mark.parametrize("count", PER_ROUND + GROWING + RECORDS)
def test_work_per_node_round_is_flat_in_rounds(sweep, count):
    runs = ROUND_SWEEPS[sweep]
    assert spread(runs, count) <= FLAT, [per_node_round(*run)[count] for run in runs]


@pytest.mark.parametrize("n", [5, 40])
def test_hub_bytes_grow_by_a_constant_per_window_round(n):
    center = Simulation(fan(n), rounds=7, seed=0).run().nodes["center"]
    proofs = [build_hub_proof(center.records, (1, w), center.receipt_log) for w in range(1, 5)]
    sizes = [len(encode_proof(proof)) for proof in proofs]
    assert {b - a for a, b in zip(sizes, sizes[1:])} == {1_212 if n == 5 else 6_444}, sizes
    for proof in proofs:
        later = [paths for rnd in proof.rounds[1:] for paths in rnd.receipts]
        assert {(len(encode_inclusion_proof(paths.inclusion)), len(paths.to_bytes())) for paths in later} <= {(76, 144)}
        assert [len(rnd.prev_digests) for rnd in proof.rounds] == [n] + [0] * (len(proof.rounds) - 1)
    added = proofs[-1].rounds[-1].receipts
    assert sum(len(paths.to_bytes()) for paths in added) == 144 * n
