"""Host-speed reference for the benchmark's timings.

On a shared 2-core VM the same work runs up to 30-60% slower from one
stretch of a few seconds to the next, while CPU time tracks wall time: the
host itself changes speed.  Medians over a 30 s run cannot remove that.
So while a workload runs, a fixed reference kernel that does not touch the
library is timed every ``PERIOD`` seconds, from a SIGALRM handler, in the
benchmark's own process.  Workload times are read from ``active()``, a
clock that stops while the kernel runs.  ``factor(since, sensitivity)``
then turns a stretch's active seconds into *host-adjusted seconds*: they
are scaled by ``(REF_S / median kernel time) ** sensitivity`` over the same
stretch.  This is a regression adjustment on a covariate the library cannot
move.  ``sensitivity`` is the slope of log pass time on log kernel time,
fitted per workload across runs of unchanged code: the kernel is
compute-bound, while a workload that waits on memory follows the host's
speed only in part.  A slow stretch slows the kernel too, and the factor
takes that share out; a slower library does not slow the kernel, and shows
in full.

Work too short for the timer, such as one set-up, calls ``probe()``
beside it instead.  Usage::

    with sampling():
        mark = len(samples)
        t = active(); work(); wall = active() - t
        adjusted = wall * factor(mark, sensitivity)
"""
from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD = 0.1
# The kernel's typical median time on the 2-core Xeon VM the bounds were
# set on, so that a factor near 1 marks a host of typical speed.
REF_S = 0.006
MIN_SAMPLES = 5

_RNG = np.random.default_rng(0)
_MAT = _RNG.standard_normal((128, 128))
_VEC = _RNG.standard_normal(400)
_COSTS = [int(c) for c in _RNG.integers(1, 9, size=1024)]

samples: list[float] = []
_paused = 0.0
_sampling = False


def kernel() -> float:
    """Fixed work in the library's mix: a Python best-first search on a
    32x32 grid, small-array numpy calls and a few dense 128x128 products,
    about a third of the time each."""
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, cell = heapq.heappop(heap)
        if d > dist[cell]:
            continue
        row, col = divmod(cell, 32)
        for r, c in ((row + 1, col), (row - 1, col), (row, col + 1),
                     (row, col - 1)):
            if 0 <= r < 32 and 0 <= c < 32:
                nxt = r * 32 + c
                nd = d + _COSTS[nxt]
                if nd < dist.get(nxt, 1 << 30):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
    total = float(dist[1023])
    for i in range(200):
        part = _VEC[_VEC > (i % 7) * 0.1]
        total += float(np.sum(part * part)) + float(np.argmax(part))
    m = _MAT
    for _ in range(12):
        m = np.tanh(m @ _MAT * 0.05)
    return total + float(m.sum())


def probe() -> None:
    """Time the kernel once, on caches it has just warmed, so that the
    workload's own cache footprint does not move the sample; the active
    clock sees neither run."""
    global _paused
    collecting = gc.isenabled()
    gc.disable()  # a collection would scan the workload's heap
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    kernel()
    t2 = time.perf_counter()
    if collecting:
        gc.enable()
    samples.append(t2 - t1)
    _paused += time.perf_counter() - t0


def _sample(signum, frame) -> None:
    probe()
    # Re-armed one-shot, so a slow kernel never nests in its own handler;
    # not once sampling() is leaving, or the timer would outlive it.
    if _sampling:
        signal.setitimer(signal.ITIMER_REAL, PERIOD)


def active() -> float:
    """perf_counter minus every second spent in the reference kernel."""
    return time.perf_counter() - _paused


@contextmanager
def sampling():
    """Time the reference kernel every PERIOD seconds inside the block."""
    global _sampling
    previous = signal.signal(signal.SIGALRM, _sample)
    _sampling = True
    signal.setitimer(signal.ITIMER_REAL, PERIOD)
    try:
        yield
    finally:
        _sampling = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def factor(since: int, sensitivity: float, until: int | None = None) -> float:
    """(REF_S / median kernel time) ** sensitivity over the samples taken
    from index ``since`` up to ``until``; the MIN_SAMPLES before ``until``
    if the stretch holds fewer."""
    until = len(samples) if until is None else until
    window = samples[since:until]
    if len(window) < MIN_SAMPLES:
        window = samples[max(0, until - MIN_SAMPLES):until]
    return (REF_S / statistics.median(window)) ** sensitivity
