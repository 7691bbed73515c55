"""Host speed index: a fixed reference computation timed between requests.

The machines this benchmark runs on are shared, and their speed drifts
by tens of percent over seconds (other tenants on sibling hardware
threads, frequency changes).  Host-time metrics are therefore reported
*at reference speed*: each request's latency is divided by the speed
index measured around it, where the index is the duration of a fixed
probe in units of :data:`NOMINAL_S`.  The probe is the benchmark's own
code (interpreter work, NumPy gathers and small NumPy calls, the mix the
program spends its time in), so no change to the program can move it.  Raw latencies
are printed beside the normalised metrics.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: probe duration that defines speed index 1.0
NOMINAL_S = 1.5e-3
#: minimum wall time between two probes
INTERVAL_S = 0.05
#: probes on each side of a request that set its index
WINDOW = 3

_rng = np.random.default_rng(20180521)
_VALUES = _rng.integers(0, 1000, 4096)
_INDEX = _rng.integers(0, 4096, 4096)
_LANES = [np.arange(8, dtype=np.uint64) + k for k in range(8)]


def probe() -> float:
    """Seconds one run of the fixed reference computation takes: about
    equal parts interpreter work, NumPy gathers over a few thousand
    elements and many NumPy calls on 8-element vectors."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(1000):
        table[i & 255] = table.get(i & 255, 0) + i
    x = _VALUES
    for _ in range(15):
        x = (x[_INDEX] + 1) % 1000
    for _ in range(75):
        np.stack(_LANES)[:, ::2].sum()
    return time.perf_counter() - t0


class SpeedIndex:
    """Probes taken at most every :data:`INTERVAL_S` seconds of a run."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def maybe_probe(self) -> None:
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= INTERVAL_S:
            self.times.append(now)
            self.values.append(probe() / NOMINAL_S)

    def at(self, t: float) -> float:
        """The median index of the probes around time *t*."""
        k = bisect.bisect(self.times, t)
        return statistics.median(self.values[max(0, k - WINDOW): k + WINDOW])

    def median(self) -> float:
        return statistics.median(self.values)
