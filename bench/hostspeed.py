"""Host speed probe: a fixed pure-Python kernel timed between passes.

Host speed on a shared machine drifts by up to about 1.5x over seconds
to minutes, and a whole run can sit in a slow phase, so raw host time
does not repeat from run to run. The probe's work never changes, and it
is shaped like the simulator's hot path (a clocked loop of method calls
on eight units, FIFO deques, small dict records, JSON encoding), so its
time tracks the host's current speed. Each timed pass is rescaled by the
probes taken just before and just after it to what it would have taken
on a host that runs the probe in REFERENCE_PROBE_S.
"""

from __future__ import annotations

import json
from collections import deque
from time import perf_counter

REFERENCE_PROBE_S = 0.05  # probe time on the reference host, host seconds


class _Unit:
    def __init__(self, k: int):
        self.k = k
        self.fifo: deque[int] = deque()
        self.busy = 0

    def step(self, t: int, inputs: int, records: list) -> None:
        if inputs >> self.k & 1 and len(self.fifo) < 4:
            self.fifo.append(t)
        if self.busy:
            self.busy -= 1
        elif self.fifo:
            start = self.fifo.popleft()
            self.busy = 3
            records.append({"kind": "done", "t": t, "unit": self.k,
                            "latency": t - start})


def probe_seconds(cycles: int = 6000) -> float:
    """Host seconds of one run of the fixed kernel."""
    t0 = perf_counter()
    units = [_Unit(k) for k in range(8)]
    records: list = []
    for t in range(cycles):
        inputs = (t * 2654435761 >> 7) & 0xFF
        for unit in units:
            unit.step(t, inputs, records)
    for record in records:
        json.dumps(record, separators=(",", ":"))
    return perf_counter() - t0


class SpeedTrack:
    """Probes between consecutive passes; `factor()` is the slowdown of
    the host during the pass that just ended against the reference host."""

    def __init__(self):
        self._last = probe_seconds()

    def factor(self) -> float:
        now = probe_seconds()
        slowdown = (self._last + now) / 2 / REFERENCE_PROBE_S
        self._last = now
        return slowdown
