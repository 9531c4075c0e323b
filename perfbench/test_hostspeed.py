"""Tests of the host-speed reference.

Run from the root of a checkout:  python3 -m pytest perfbench/test_hostspeed.py
"""
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampling_restores_the_handler_and_disarms_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.sampling():
        assert signal.getsignal(signal.SIGALRM) is not before
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampling_restores_after_an_error():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        with hostspeed.sampling():
            raise RuntimeError("boom")
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_active_clock_excludes_the_samples():
    mark = len(hostspeed.samples)
    with hostspeed.sampling():
        t, a = time.perf_counter(), hostspeed.active()
        _busy(10 * hostspeed.PERIOD)
        wall, act = time.perf_counter() - t, hostspeed.active() - a
    taken = hostspeed.samples[mark:]
    assert len(taken) >= 2
    # Each probe runs the kernel twice and keeps the second timing.
    assert 2 * sum(taken) * 0.8 <= wall - act < wall


def test_factor_is_a_power_of_ref_over_the_median_sample():
    mark = len(hostspeed.samples)
    for _ in range(hostspeed.MIN_SAMPLES):
        hostspeed.probe()
    median = sorted(hostspeed.samples[mark:])[hostspeed.MIN_SAMPLES // 2]
    assert hostspeed.factor(mark, 1.0) == hostspeed.REF_S / median
    assert hostspeed.factor(mark, 0.5) == (hostspeed.REF_S / median) ** 0.5
    assert hostspeed.factor(mark, 0.0) == 1.0
    # A stretch with too few samples falls back to the ones before its end.
    end = len(hostspeed.samples)
    assert hostspeed.factor(end, 1.0) == hostspeed.factor(mark, 1.0)
    hostspeed.probe()
    assert hostspeed.factor(end, 1.0, end) == hostspeed.factor(mark, 1.0, end)
