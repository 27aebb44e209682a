"""Reference-speed time for a host whose speed drifts.

On a shared 2-core sandbox the same fixed CPU work was measured taking
1.0x or 1.7x as long, in regimes lasting from seconds to tens of seconds.
A 15-second run can fall wholly in either regime, so raw wall-clock medians
of identical runs differ by up to 1.7x.

The benchmark therefore runs a short fixed probe (hashing, one Ed25519
verify, allocation; none of it ``entmesh`` code) between operations, and
converts each measured wall interval to reference seconds: every stretch
of time is weighted by ``REFERENCE_PROBE_S / local probe time``, where the
local probe time is the median of the nearest probes.  The probes' own
time carries weight zero.  A change to ``entmesh`` moves the workload's
time and not the probe's, so it shows in full; a change of host speed
moves both and cancels.  Raw wall times are kept in the result file.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import struct
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Median probe time on the reference host (2-core sandbox, Python 3.11,
# cryptography 48) in its fast regime.  Reference seconds equal wall
# seconds there.
REFERENCE_PROBE_S = 0.00035
_SMOOTH = 1  # a probe's local time is the median of itself and one neighbour each side

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUBLIC = _KEY.public_key()
_MESSAGE = bytes(100)
_SIGNATURE = _KEY.sign(_MESSAGE)


def probe_kernel() -> None:
    """Fixed work whose slowdown under host contention matches the
    workloads' (measured: both about 1.7x in the slow regime)."""
    for i in range(100):
        hashlib.sha256(i.to_bytes(8, "big") * 8).digest()
    _PUBLIC.verify(_SIGNATURE, _MESSAGE)
    table = {}
    for i in range(300):
        table[(i, b"%d" % i)] = [i, str(i)]
    b"".join(struct.pack(">Q", i) for i in range(200))


class RefClock:
    """Collects probes during a run; afterwards converts wall intervals."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.probes: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._factors: list[float] = []
        self._prefix: list[float] = []

    def probe(self) -> None:
        if self.enabled:
            start = time.perf_counter()
            probe_kernel()
            self.probes.append((start, time.perf_counter()))

    def freeze(self) -> None:
        """Build the piecewise-constant weight function from the probes."""
        durations = [end - start for start, end in self.probes]
        local = [
            statistics.median(durations[max(0, i - _SMOOTH) : i + _SMOOTH + 1]) for i in range(len(durations))
        ]
        starts, factors = [float("-inf")], [REFERENCE_PROBE_S / local[0] if local else 1.0]
        for i, (start, end) in enumerate(self.probes):
            starts.append(start)
            factors.append(0.0)
            after = local[i] if i + 1 == len(local) else (local[i] + local[i + 1]) / 2
            starts.append(end)
            factors.append(REFERENCE_PROBE_S / after)
        self._starts, self._factors = starts, factors
        # prefix[k] is the weighted time from starts[1] to starts[k].
        prefix = [0.0, 0.0]
        for k in range(2, len(starts)):
            prefix.append(prefix[-1] + (starts[k] - starts[k - 1]) * factors[k - 1])
        self._prefix = prefix

    def _integral(self, t: float) -> float:
        k = bisect.bisect_right(self._starts, t) - 1
        if k == 0:
            base = self._starts[1] if len(self._starts) > 1 else 0.0
            return (t - base) * self._factors[0]
        return self._prefix[k] + (t - self._starts[k]) * self._factors[k]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds elapsed between two perf_counter readings."""
        if not self.enabled:
            return end - start
        return self._integral(end) - self._integral(start)
