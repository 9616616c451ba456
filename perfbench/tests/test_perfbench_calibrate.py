"""Tests of the host-speed calibrator.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import pytest  # noqa: E402

import calibrate  # noqa: E402


class FakeClock:
    """A unit that advances a fake perf_counter by a fixed step."""

    def __init__(self, step):
        self.now = 0.0
        self.step = step
        self.calls = 0

    def unit(self):
        self.calls += 1
        self.now += self.step


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock(0.004)
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: fake.now)
    return fake


def test_run_for_runs_whole_units_until_the_time_has_passed(clock):
    cal = calibrate.Calibrator(clock.unit, ref_s=0.002)
    cal.run_for(0.010)  # 3 units of 0.004 s reach 0.010
    cal.run_for(0.0)  # always at least one unit
    assert (clock.calls, cal.units) == (4, 4)
    assert cal.seconds == pytest.approx(0.016)
    assert cal.slowdown() == pytest.approx(2.0)
