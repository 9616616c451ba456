"""Host-speed calibration.

On a shared host the same code runs up to several times slower from one
minute to the next as other tenants load the machine.  Each workload has a
calibration unit: a fixed piece of harness-owned work of the same kind as
its requests, which calls no covsel code (see ``calibration`` in
workloads.py).  The workload process runs units after every timed request
and after set-up, so the program and the units see the same host.  The
``slowdown`` is the mean unit time over the unit's time on the reference
host, and a time divided by it is the time at the reference host's speed.
A change to covsel does not change the units, so it moves the normalised
times in full.
"""

from __future__ import annotations

import time

# Calibration time after a timed request, as a share of the request's time.
SHARE = 1 / 3


class Calibrator:
    """Runs calibration units and keeps their count and summed time.

    ``unit`` is a workload's fixed unit of work and ``ref_s`` its median
    time on the reference host (2-vCPU Intel Xeon VM, Python 3.11.7,
    NumPy 2.4.6, OpenBLAS pinned to one thread).  Only the scale of the
    normalised times depends on ``ref_s``."""

    def __init__(self, unit, ref_s: float):
        self._unit = unit
        self._ref_s = ref_s
        self.units = 0
        self.seconds = 0.0

    def run_for(self, seconds: float) -> None:
        """Run whole units until ``seconds`` have passed (at least one)."""
        start = time.perf_counter()
        while True:
            self._unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    def slowdown(self) -> float:
        """Mean unit time over the reference; above 1 on a slower host."""
        return self.seconds / self.units / self._ref_s
